// Self-tests of the benchmark's checkers: each accepts a correct input
// and rejects the same input with one deliberate perturbation (a
// flipped quote, a shifted revenue, a wrong cell). Exits non-zero on
// the first checker that fails to tell them apart.
//
//   .bench_build/checks_test
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <tuple>

#include "checks.h"
#include "core/pricing.h"

namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

double FlipLowBit(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= 1;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

int main() {
  using perfbench::CellWrite;
  using qp::db::Value;

  // Flipped quote: one bit of the price, or a stale version vector.
  qp::serve::Quote local{12.5, 7, {3, 4}, "LPIP"};
  qp::serve::Quote wire = local;
  Expect(perfbench::CompareQuotes(wire, local).empty(),
         "identical quotes compare equal");
  wire.price = FlipLowBit(wire.price);
  Expect(!perfbench::CompareQuotes(wire, local).empty(),
         "a quote with one price bit flipped is rejected");
  wire = local;
  wire.shard_versions = {4, 3};
  Expect(!perfbench::CompareQuotes(wire, local).empty(),
         "a quote with another shard version vector is rejected");

  // Arbitrage: a flipped union quote breaks monotonicity or
  // subadditivity.
  Expect(perfbench::CheckArbitrage(3.0, 4.0, 6.0).empty(),
         "monotone subadditive triple passes");
  Expect(!perfbench::CheckArbitrage(3.0, 4.0, 7.5).empty(),
         "p(A u B) > p(A) + p(B) is rejected");
  Expect(!perfbench::CheckArbitrage(3.0, 4.0, 3.5).empty(),
         "p(A u B) < p(B) is rejected");

  perfbench::VersionMonotone versions;
  Expect(versions.Observe({1, 1}).empty() &&
             versions.Observe({1, 2}).empty() &&
             versions.Observe({2, 2}).empty(),
         "advancing version vectors pass");
  Expect(!versions.Observe({2, 1}).empty(),
         "a version vector that goes back is rejected");

  Expect(perfbench::CheckPurchaseDecision(5.0, 5.0, true).empty() &&
             perfbench::CheckPurchaseDecision(5.0, 4.0, false).empty(),
         "purchase decisions at and below the valuation pass");
  Expect(!perfbench::CheckPurchaseDecision(
              5.0, 5.0 - 10 * qp::core::kSellTolerance, true).empty(),
         "a sale above valuation + tolerance is rejected");
  Expect(!perfbench::CheckPurchaseDecision(5.0, 5.0, false).empty(),
         "a refused sale at the valuation is rejected");

  // Shifted revenue.
  Expect(perfbench::SameSum(0.1 + 0.2 + 0.3, 0.3 + 0.2 + 0.1),
         "sums in another order agree");
  Expect(!perfbench::SameSum(1000.0, 1000.0 + 1e-4),
         "a revenue shifted by 1e-4 is rejected");
  const double ubp = perfbench::OptimalUniformBundleRevenue({1, 5, 4, 4});
  Expect(ubp == 12.0, "uniform bundle optimum of {1,5,4,4} is 12");
  Expect(perfbench::CheckBookRevenue(13.0, 13.0, ubp, 14.0).empty(),
         "book revenue between the bounds passes");
  Expect(!perfbench::CheckBookRevenue(13.0, 13.0 + 1e-3, ubp, 14.0).empty(),
         "book revenue shifted from the recomputed value is rejected");
  Expect(!perfbench::CheckBookRevenue(11.0, 11.0, ubp, 14.0).empty(),
         "book revenue below the uniform optimum is rejected");
  Expect(!perfbench::CheckBookRevenue(15.0, 15.0, ubp, 14.0).empty(),
         "book revenue above the sum of valuations is rejected");

  // Wrong cell.
  std::vector<CellWrite> writes = {{0, 1, 2, Value::Int(7)},
                                   {1, 0, 0, Value::Str("x")}};
  std::map<std::tuple<int, int, int>, Value> store = {
      {{0, 1, 2}, Value::Int(7)}, {{1, 0, 0}, Value::Str("x")}};
  auto read = [&](int t, int r, int c) { return store.at({t, r, c}); };
  Expect(perfbench::CheckCells(writes, read).empty(),
         "cells holding their last written values pass");
  store[{1, 0, 0}] = Value::Str("y");
  Expect(!perfbench::CheckCells(writes, read).empty(),
         "a cell holding another value is rejected");
  store[{1, 0, 0}] = Value::Str("x");
  store[{0, 1, 2}] = Value::Real(7.0);
  Expect(!perfbench::CheckCells(writes, read).empty(),
         "a cell holding the value with another type is rejected");

  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
