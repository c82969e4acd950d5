#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fragment/fragmentation.h"
#include "schema/star_schema.h"

namespace perfbench {

/// The one dataset every workload queries: the medium APB-1 schema
/// (product 2/8/24/96/480/960, customer retailer 12 / store 480, channel
/// 3, time 2/8/24) at density 0.25 — about 8.3M fact rows, so the store
/// is several times larger than the last-level cache.
mdw::StarSchema MakeBenchSchema();

/// MDHF fragmentation {time.month, product.group}: 24 x 96 = 2304
/// fragments of ~3.6k rows each.
std::vector<mdw::FragAttr> BenchFragmentation();

inline constexpr int kNumShards = 4;
/// Buffer-pool frames of the file-backed store (64 MiB of 4 KiB pages).
inline constexpr std::int64_t kPoolPages = 16384;

/// One workload: which store it runs on, with how many library workers,
/// and the statement shapes its closed loop sends.
struct WorkloadSpec {
  std::string name;
  bool paged = false;
  int num_workers = 1;
  std::vector<std::string> shapes;
  /// Shape of statement i is shapes[cycle[i % cycle.size()]]. A fixed
  /// cycle instead of a random mix keeps every run's shape mix identical,
  /// and its weights keep p50 inside one shape's latency band rather than
  /// on the cliff between two shapes.
  std::vector<int> cycle;
  /// Length of the pre-generated stream; each construction's loop starts
  /// at its beginning and wraps around it. Every distinct statement in it
  /// is executed once before timing, which bounds its length: at 20 s a
  /// scan or paged construction's share of the run sends it about twice.
  std::size_t stream_length = 0;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Statements generated before any timing: the distinct SQL texts and
/// the stream of indices into them that the closed loop sends in order.
struct StatementSet {
  std::vector<std::string> sql;
  std::vector<int> shape;  ///< parallel to sql
  std::vector<std::uint32_t> stream;
};

/// Generates `spec`'s statements from `seed` alone (same seed, same
/// statements).
StatementSet GenerateStatements(const WorkloadSpec& spec,
                                const mdw::StarSchema& schema,
                                std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
