// Oracle test for the body matcher: executing a compiled plan (either
// planner) must return exactly the substitutions a brute-force
// enumeration over the active domain accepts, for random rules, random
// databases, and random marked atoms.
// This pins down the trickiest module (join planning, index usage,
// repeated variables, negation ordering, event literals) against a
// definition-level implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "engine/matcher.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "util/random.h"
#include "util/string_util.h"

namespace park {
namespace {

constexpr int kNumConstants = 4;  // c0..c3
constexpr int kNumPredicates = 3; // q0/1, q1/2, q2/1

std::string ConstName(int i) { return "c" + std::to_string(i); }

/// Builds a random safe rule as text; retries until it parses safely.
std::string RandomRuleText(Rng& rng) {
  static const char* kVars[] = {"X", "Y", "Z"};
  auto term = [&](bool allow_var) {
    if (allow_var && rng.Bernoulli(0.6)) {
      return std::string(kVars[rng.Uniform(3)]);
    }
    return ConstName(static_cast<int>(rng.Uniform(kNumConstants)));
  };
  auto atom = [&](bool allow_var) {
    int pred = static_cast<int>(rng.Uniform(kNumPredicates));
    int arity = pred == 1 ? 2 : 1;
    std::string out = "q" + std::to_string(pred) + "(";
    for (int i = 0; i < arity; ++i) {
      if (i > 0) out += ", ";
      out += term(allow_var);
    }
    out += ")";
    return out;
  };
  int body_len = 1 + static_cast<int>(rng.Uniform(3));
  std::string text;
  for (int i = 0; i < body_len; ++i) {
    if (i > 0) text += ", ";
    switch (rng.Uniform(5)) {
      case 0:
        text += "!";
        break;
      case 1:
        text += "+";
        break;
      case 2:
        text += "-";
        break;
      default:
        break;
    }
    text += atom(true);
  }
  text += " -> +" + atom(true) + ".";
  return text;
}

/// Definition-level match enumeration: every assignment of the rule's
/// variables over the constant domain, accepted iff all literals valid.
std::set<std::string> OracleMatches(const Rule& rule,
                                    const IInterpretation& interp,
                                    const std::vector<Value>& domain,
                                    const SymbolTable& symbols) {
  std::set<std::string> accepted;
  int vars = rule.num_variables();
  std::vector<size_t> choice(static_cast<size_t>(vars), 0);
  while (true) {
    std::vector<Value> binding;
    binding.reserve(static_cast<size_t>(vars));
    for (int v = 0; v < vars; ++v) {
      binding.push_back(domain[choice[static_cast<size_t>(v)]]);
    }
    bool valid = true;
    for (const BodyLiteral& lit : rule.body()) {
      if (!interp.IsValid(lit.atom.Ground(binding), lit.kind)) {
        valid = false;
        break;
      }
    }
    if (valid) {
      std::string key;
      for (const Value& v : binding) key += v.ToString(symbols) + ",";
      accepted.insert(key);
    }
    // Odometer increment.
    int pos = 0;
    while (pos < vars) {
      if (++choice[static_cast<size_t>(pos)] < domain.size()) break;
      choice[static_cast<size_t>(pos)] = 0;
      ++pos;
    }
    if (vars == 0 || pos == vars) break;
  }
  return accepted;
}

class MatcherOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherOracleTest, MatcherAgreesWithBruteForce) {
  Rng rng(GetParam());
  auto symbols = MakeSymbolTable();

  // Constant domain, interned up front.
  std::vector<Value> domain;
  for (int i = 0; i < kNumConstants; ++i) {
    domain.push_back(Value::Symbol(symbols->InternSymbol(ConstName(i))));
  }
  // Predeclare predicates so random facts and rules agree on arity.
  PredicateId preds[kNumPredicates] = {
      symbols->InternPredicate("q0", 1), symbols->InternPredicate("q1", 2),
      symbols->InternPredicate("q2", 1)};

  for (int scenario = 0; scenario < 30; ++scenario) {
    // Random base facts.
    Database db(symbols);
    for (int p = 0; p < kNumPredicates; ++p) {
      int arity = p == 1 ? 2 : 1;
      int facts = static_cast<int>(rng.Uniform(6));
      for (int f = 0; f < facts; ++f) {
        Tuple t;
        for (int i = 0; i < arity; ++i) {
          t.Append(domain[rng.Uniform(kNumConstants)]);
        }
        db.Insert(GroundAtom(preds[p], std::move(t)));
      }
    }
    // Random marked atoms (events / pending deletions).
    IInterpretation interp(&db);
    RuleGrounding dummy(0, Tuple{});
    for (int m = 0; m < 4; ++m) {
      int p = static_cast<int>(rng.Uniform(kNumPredicates));
      int arity = p == 1 ? 2 : 1;
      Tuple t;
      for (int i = 0; i < arity; ++i) {
        t.Append(domain[rng.Uniform(kNumConstants)]);
      }
      interp.AddMarked(
          rng.Bernoulli(0.5) ? ActionKind::kInsert : ActionKind::kDelete,
          GroundAtom(preds[p], std::move(t)), dummy);
    }

    // Random safe rule.
    Rule rule;
    for (int attempt = 0;; ++attempt) {
      auto parsed = ParseRule(RandomRuleText(rng), symbols);
      if (parsed.ok()) {
        rule = std::move(parsed).value();
        break;
      }
      ASSERT_LT(attempt, 200) << "cannot generate a safe random rule";
    }

    std::set<std::string> oracle =
        OracleMatches(rule, interp, domain, *symbols);
    for (PlannerMode mode :
         {PlannerMode::kHeuristic, PlannerMode::kCostBased}) {
      std::set<std::string> matcher;
      ExecutePlan(CompilePlan(rule, /*seed_index=*/-1, mode, &interp), rule,
                  interp, CandidateSlice{}, [&](const Tuple& binding) {
                    std::string key;
                    for (const Value& v : binding.values()) {
                      key += v.ToString(*symbols) + ",";
                    }
                    bool inserted = matcher.insert(key).second;
                    EXPECT_TRUE(inserted)
                        << "duplicate binding from matcher: " << key;
                  });
      EXPECT_EQ(matcher, oracle)
          << (mode == PlannerMode::kHeuristic ? "heuristic" : "cost-based")
          << " plan, rule: " << RuleToString(rule, *symbols) << "\n  db: "
          << db.ToString() << "\n  interp: " << interp.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherOracleTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace park
