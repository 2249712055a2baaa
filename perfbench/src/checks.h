// Correctness checks of the broker benchmark. Each takes plain values
// that the load generator collected, so the self-tests in
// perfbench/tests/ can feed them deliberately perturbed inputs and
// show that they reject them.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "db/value.h"
#include "serve/price_book.h"

namespace perfbench {

/// Wire quote against the in-process QuoteBundle of the same bundle on
/// a static book: price bits, version, shard versions and algorithm.
/// Returns "" when identical, else what differs.
std::string CompareQuotes(const qp::serve::Quote& wire,
                          const qp::serve::Quote& local);

/// Arbitrage-freeness on one bundle pair priced against one pinned
/// book: p(A u B) >= max(p(A), p(B)) (monotone) and
/// p(A u B) <= p(A) + p(B) (subadditive), up to rounding of the
/// additive cross-shard sums. Returns "" when both hold.
std::string CheckArbitrage(double price_a, double price_b, double price_ab);

/// Per-connection version vectors must never go backwards, component by
/// component, in the order replies arrive.
class VersionMonotone {
 public:
  /// Returns "" when `v` is not behind the last vector seen.
  std::string Observe(const std::vector<uint64_t>& v);

 private:
  std::vector<uint64_t> last_;
};

/// A purchase is accepted exactly when price <= valuation +
/// core::kSellTolerance.
std::string CheckPurchaseDecision(double price, double valuation,
                                  bool accepted);

/// Two sums of the same prices taken in different orders agree to
/// within rounding (relative 1e-9).
bool SameSum(double a, double b);

/// The revenue of the optimal uniform bundle price for these
/// valuations: max over p of p * #{v >= p}.
double OptimalUniformBundleRevenue(std::vector<double> valuations);

/// book_revenue checks: the value recomputed from wire quotes equals the
/// book's own revenue, and the book earns at least the optimal uniform
/// bundle price revenue and at most the sum of valuations.
std::string CheckBookRevenue(double recomputed, double book,
                             double uniform_optimum, double sum_valuations);

struct CellWrite {
  int table = 0;
  int row = 0;
  int column = 0;
  qp::db::Value value;
};

/// Every cell's logical value equals the last value written to it.
/// `read` returns the logical value of a cell.
std::string CheckCells(
    const std::vector<CellWrite>& last_writes,
    const std::function<qp::db::Value(int, int, int)>& read);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
