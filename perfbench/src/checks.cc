#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/str_util.h"
#include "core/pricing.h"

namespace perfbench {

std::string CompareQuotes(const qp::serve::Quote& wire,
                          const qp::serve::Quote& local) {
  uint64_t a = 0, b = 0;
  std::memcpy(&a, &wire.price, sizeof(a));
  std::memcpy(&b, &local.price, sizeof(b));
  if (a != b) {
    return qp::StrFormat("price %.17g != in-process %.17g", wire.price,
                         local.price);
  }
  if (wire.version != local.version) return "version differs";
  if (wire.shard_versions != local.shard_versions) {
    return "shard version vector differs";
  }
  if (wire.algorithm != local.algorithm) {
    return "algorithm " + wire.algorithm + " != " + local.algorithm;
  }
  return "";
}

std::string CheckArbitrage(double price_a, double price_b, double price_ab) {
  const double tol =
      1e-9 * (1.0 + std::fabs(price_a) + std::fabs(price_b));
  if (price_ab + tol < std::max(price_a, price_b)) {
    return qp::StrFormat("not monotone: p(A u B)=%.17g < max(%.17g, %.17g)",
                         price_ab, price_a, price_b);
  }
  if (price_ab > price_a + price_b + tol) {
    return qp::StrFormat("not subadditive: p(A u B)=%.17g > %.17g + %.17g",
                         price_ab, price_a, price_b);
  }
  return "";
}

std::string VersionMonotone::Observe(const std::vector<uint64_t>& v) {
  if (!last_.empty()) {
    if (v.size() != last_.size()) return "version vector changed length";
    for (size_t i = 0; i < v.size(); ++i) {
      if (v[i] < last_[i]) {
        return qp::StrFormat("shard %zu version went back from %llu to %llu",
                             i, static_cast<unsigned long long>(last_[i]),
                             static_cast<unsigned long long>(v[i]));
      }
    }
  }
  last_ = v;
  return "";
}

std::string CheckPurchaseDecision(double price, double valuation,
                                  bool accepted) {
  const bool should = price <= valuation + qp::core::kSellTolerance;
  if (should == accepted) return "";
  return qp::StrFormat("purchase at price %.17g, valuation %.17g was %s",
                       price, valuation, accepted ? "accepted" : "refused");
}

bool SameSum(double a, double b) {
  return std::fabs(a - b) <=
         1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

double OptimalUniformBundleRevenue(std::vector<double> valuations) {
  std::sort(valuations.begin(), valuations.end(), std::greater<double>());
  double best = 0.0;
  for (size_t i = 0; i < valuations.size(); ++i) {
    // Price v_i sells to the i + 1 buyers valuing it at least v_i.
    best = std::max(best, valuations[i] * static_cast<double>(i + 1));
  }
  return best;
}

std::string CheckBookRevenue(double recomputed, double book,
                             double uniform_optimum, double sum_valuations) {
  if (!SameSum(recomputed, book)) {
    return qp::StrFormat(
        "book revenue %.17g != %.17g recomputed from wire quotes", book,
        recomputed);
  }
  if (book + 1e-9 * std::max(1.0, uniform_optimum) < uniform_optimum) {
    return qp::StrFormat(
        "book revenue %.17g below the optimal uniform bundle price "
        "revenue %.17g",
        book, uniform_optimum);
  }
  if (book > sum_valuations * (1.0 + 1e-9) + 1e-9) {
    return qp::StrFormat("book revenue %.17g above the sum of valuations %.17g",
                         book, sum_valuations);
  }
  return "";
}

std::string CheckCells(
    const std::vector<CellWrite>& last_writes,
    const std::function<qp::db::Value(int, int, int)>& read) {
  for (const CellWrite& w : last_writes) {
    qp::db::Value got = read(w.table, w.row, w.column);
    if (got.type() != w.value.type() || !(got == w.value)) {
      return qp::StrFormat("cell (%d,%d,%d) reads %s, last written %s",
                           w.table, w.row, w.column, got.ToString().c_str(),
                           w.value.ToString().c_str());
    }
  }
  return "";
}

}  // namespace perfbench
