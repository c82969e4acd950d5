#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <random>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "schema/apb1.h"

namespace perfbench {
namespace {

/// Discrete Zipf sampler over ranks [0, n): P(r) ~ 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(std::int64_t n, double s) : cdf_(static_cast<std::size_t>(n)) {
    double total = 0;
    for (std::int64_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[static_cast<std::size_t>(r)] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  std::int64_t operator()(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::int64_t>(it - cdf_.begin(),
                                  static_cast<std::int64_t>(cdf_.size()) - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Zipf over a parameter universe of size n whose popularity order is a
/// seeded permutation, so the hot parameters differ from seed to seed.
class PermutedZipf {
 public:
  PermutedZipf(std::int64_t n, double s, std::mt19937_64& rng)
      : zipf_(n, s), perm_(static_cast<std::size_t>(n)) {
    std::iota(perm_.begin(), perm_.end(), std::int64_t{0});
    std::shuffle(perm_.begin(), perm_.end(), rng);
  }

  std::int64_t operator()(std::mt19937_64& rng) const {
    return perm_[static_cast<std::size_t>(zipf_(rng))];
  }

 private:
  Zipf zipf_;
  std::vector<std::int64_t> perm_;
};

std::int64_t Uniform(std::mt19937_64& rng, std::int64_t n) {
  return std::uniform_int_distribution<std::int64_t>(0, n - 1)(rng);
}

template <typename... Args>
std::string Format(const char* fmt, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

// Dimension cardinalities of MakeBenchSchema().
constexpr std::int64_t kYears = 2, kQuarters = 8, kMonths = 24;
constexpr std::int64_t kLines = 8, kFamilies = 24, kGroups = 96,
                       kClasses = 480, kCodes = 960;
constexpr std::int64_t kRetailers = 12, kStores = 480, kChannels = 3;

/// Plan-cache skew of covered_sql: with 256 cache entries against 2576
/// distinct statements this exponent gives a hit rate near 95%.
constexpr double kCoveredSkew = 1.5;
/// Recency skew of paged_sql's month parameter.
constexpr double kPagedMonthSkew = 1.0;

using ShapeGen = std::function<std::string(std::mt19937_64&)>;

std::vector<ShapeGen> CoveredShapes(const std::string& fact,
                                    std::mt19937_64& rng) {
  const PermutedZipf month_group(kMonths * kGroups, kCoveredSkew, rng);
  const PermutedZipf quarter_family(kQuarters * kFamilies, kCoveredSkew, rng);
  const PermutedZipf year_line(kYears * kLines, kCoveredSkew, rng);
  const PermutedZipf quarter_line(kQuarters * kLines, kCoveredSkew, rng);
  return {
      [=](std::mt19937_64& r) {
        const std::int64_t p = month_group(r);
        return Format(
            "SELECT SUM(UnitsSold), SUM(DollarSales) FROM %s "
            "WHERE time.month = %lld AND product.group = %lld",
            fact.c_str(), static_cast<long long>(p / kGroups),
            static_cast<long long>(p % kGroups));
      },
      [=](std::mt19937_64& r) {
        const std::int64_t p = quarter_family(r);
        return Format(
            "SELECT SUM(UnitsSold), COUNT(*) FROM %s "
            "WHERE time.quarter = %lld AND product.family = %lld",
            fact.c_str(), static_cast<long long>(p / kFamilies),
            static_cast<long long>(p % kFamilies));
      },
      [=](std::mt19937_64& r) {
        const std::int64_t p = year_line(r);
        return Format(
            "SELECT SUM(DollarSales), AVG(UnitsSold) FROM %s "
            "WHERE time.year = %lld AND product.line = %lld "
            "GROUP BY time.month",
            fact.c_str(), static_cast<long long>(p / kLines),
            static_cast<long long>(p % kLines));
      },
      [=](std::mt19937_64& r) {
        const std::int64_t p = quarter_line(r);
        return Format(
            "SELECT SUM(UnitsSold), SUM(DollarSales) FROM %s "
            "WHERE time.quarter = %lld AND product.line = %lld "
            "GROUP BY product.group ORDER BY SUM(UnitsSold) DESC LIMIT 10",
            fact.c_str(), static_cast<long long>(p / kLines),
            static_cast<long long>(p % kLines));
      },
  };
}

std::vector<ShapeGen> ScanShapes(const std::string& fact) {
  return {
      [=](std::mt19937_64& r) {
        return Format(
            "SELECT SUM(UnitsSold), SUM(DollarSales) FROM %s "
            "WHERE time.month = %lld AND product.code = %lld",
            fact.c_str(), static_cast<long long>(Uniform(r, kMonths)),
            static_cast<long long>(Uniform(r, kCodes)));
      },
      [=](std::mt19937_64& r) {
        return Format(
            "SELECT SUM(UnitsSold), SUM(DollarSales) FROM %s "
            "WHERE product.class = %lld AND customer.store = %lld",
            fact.c_str(), static_cast<long long>(Uniform(r, kClasses)),
            static_cast<long long>(Uniform(r, kStores)));
      },
      [=](std::mt19937_64& r) {
        return Format(
            "SELECT SUM(UnitsSold), COUNT(*) FROM %s "
            "WHERE time.quarter = %lld AND channel.channel = %lld "
            "GROUP BY customer.retailer",
            fact.c_str(), static_cast<long long>(Uniform(r, kQuarters)),
            static_cast<long long>(Uniform(r, kChannels)));
      },
      [=](std::mt19937_64& r) {
        return Format(
            "SELECT SUM(UnitsSold), SUM(DollarSales) FROM %s "
            "WHERE time.year = %lld AND customer.retailer = %lld",
            fact.c_str(), static_cast<long long>(Uniform(r, kYears)),
            static_cast<long long>(Uniform(r, kRetailers)));
      },
  };
}

std::vector<ShapeGen> PagedShapes(const std::string& fact) {
  // Rank 0 is the most recent month.
  const Zipf recency(kMonths, kPagedMonthSkew);
  const auto month = [recency](std::mt19937_64& r) {
    return static_cast<long long>(kMonths - 1 - recency(r));
  };
  return {
      [=](std::mt19937_64& r) {
        const long long m = month(r);
        return Format(
            "SELECT SUM(UnitsSold), SUM(DollarSales) FROM %s "
            "WHERE time.month = %lld AND product.class = %lld",
            fact.c_str(), m, static_cast<long long>(Uniform(r, kClasses)));
      },
      [=](std::mt19937_64& r) {
        const long long m = month(r);
        const long long family = Uniform(r, kFamilies);
        return Format(
            "SELECT SUM(DollarSales), COUNT(*) FROM %s "
            "WHERE time.month = %lld AND product.family = %lld "
            "AND channel.channel = %lld",
            fact.c_str(), m, family,
            static_cast<long long>(Uniform(r, kChannels)));
      },
      [=](std::mt19937_64& r) {
        const long long m = month(r);
        return Format(
            "SELECT SUM(UnitsSold), SUM(DollarSales) FROM %s "
            "WHERE time.month = %lld AND customer.retailer = %lld",
            fact.c_str(), m, static_cast<long long>(Uniform(r, kRetailers)));
      },
  };
}

const std::vector<WorkloadSpec>& Workloads() {
  static const auto* specs = new std::vector<WorkloadSpec>{
      {.name = "covered_sql",
       .paged = false,
       .num_workers = 1,
       .shapes = {"month_group", "quarter_family", "year_line_by_month",
                  "quarter_line_top_groups"},
       .cycle = {0, 0, 0, 0, 1, 1, 1, 1, 2, 3},
       .stream_length = std::size_t{1} << 20},
      {.name = "scan_sql",
       .paged = false,
       .num_workers = 2,
       .shapes = {"month_code", "class_store", "quarter_channel_by_retailer",
                  "year_retailer"},
       .cycle = {0, 1, 2, 2, 3},
       .stream_length = std::size_t{1} << 11},
      {.name = "paged_sql",
       .paged = true,
       .num_workers = 1,
       .shapes = {"month_class", "month_family_channel", "month_retailer"},
       .cycle = {0, 0, 1, 1, 1, 2, 2, 2},
       .stream_length = std::size_t{1} << 11},
  };
  return *specs;
}

}  // namespace

mdw::StarSchema MakeBenchSchema() {
  mdw::Dimension product("product",
                         mdw::Hierarchy({{"division", 2},
                                         {"line", kLines},
                                         {"family", kFamilies},
                                         {"group", kGroups},
                                         {"class", kClasses},
                                         {"code", kCodes}}),
                         mdw::IndexKind::kEncoded);
  mdw::Dimension customer(
      "customer",
      mdw::Hierarchy({{"retailer", kRetailers}, {"store", kStores}}),
      mdw::IndexKind::kEncoded);
  mdw::Dimension channel("channel", mdw::Hierarchy({{"channel", kChannels}}),
                         mdw::IndexKind::kSimple);
  mdw::Dimension time(
      "time",
      mdw::Hierarchy(
          {{"year", kYears}, {"quarter", kQuarters}, {"month", kMonths}}),
      mdw::IndexKind::kSimple);
  return mdw::StarSchema("medium_sales",
                         {std::move(product), std::move(customer),
                          std::move(channel), std::move(time)},
                         /*density=*/0.25, mdw::PhysicalParams{});
}

std::vector<mdw::FragAttr> BenchFragmentation() {
  return {{mdw::kApb1Time, 2}, {mdw::kApb1Product, 3}};
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const auto& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

StatementSet GenerateStatements(const WorkloadSpec& spec,
                                const mdw::StarSchema& schema,
                                std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::string& fact = schema.fact_table_name();
  const std::vector<ShapeGen> shapes =
      spec.name == "covered_sql" ? CoveredShapes(fact, rng)
      : spec.paged               ? PagedShapes(fact)
                                 : ScanShapes(fact);
  MDW_CHECK(shapes.size() == spec.shapes.size(), "shape table mismatch");

  StatementSet set;
  std::unordered_map<std::string, std::uint32_t> index;
  set.stream.reserve(spec.stream_length);
  for (std::size_t i = 0; i < spec.stream_length; ++i) {
    const int shape = spec.cycle[i % spec.cycle.size()];
    std::string sql = shapes[static_cast<std::size_t>(shape)](rng);
    const auto [it, inserted] =
        index.try_emplace(sql, static_cast<std::uint32_t>(set.sql.size()));
    if (inserted) {
      set.sql.push_back(std::move(sql));
      set.shape.push_back(shape);
    }
    set.stream.push_back(it->second);
  }
  return set;
}

}  // namespace perfbench
