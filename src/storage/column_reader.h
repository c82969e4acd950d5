#ifndef MDW_STORAGE_COLUMN_READER_H_
#define MDW_STORAGE_COLUMN_READER_H_

#include <cstdint>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/status.h"
#include "storage/segment_store.h"

namespace mdw::storage {

/// One column of the clustered store, read as values of type T (its
/// stored width: LeafKey, int32_t or int64_t), behind a single block-read
/// interface whichever source holds it: a resident column (in RAM) is one
/// block spanning all its rows, a paged column hands out one pinned
/// segment page per block through a SegmentStore::Cursor. Kernels visit
/// rows in ascending order, keep the current block in locals and call
/// Fetch() again only once a row passes the block's end, so a resident
/// scan fetches once per chunk and a paged scan once per page. Kernels
/// widen every value to int64_t before they add it.
///
/// A resident reader is one block and a disengaged cursor: building one
/// writes four words, and reading it costs a bounds check per value. Not
/// thread-safe; use one reader per thread.
template <typename T>
class ColumnReader {
 public:
  /// A resident column, given as the one block holding all its rows;
  /// the values must outlive the reader.
  explicit ColumnReader(ColumnBlock<T> column) : block_(column) {}
  /// A paged column read through `cursor`, whose column must be stored
  /// at T's width.
  explicit ColumnReader(SegmentStore::Cursor cursor)
      : cursor_(std::move(cursor)) {
    MDW_CHECK(cursor_->width() == static_cast<int>(sizeof(T)),
              "column read at a width other than its own");
  }

  /// The block holding global row `row`; valid until the next Fetch()
  /// outside it.
  ColumnBlock<T> Fetch(std::int64_t row) {
    if (row < block_.begin || row >= block_.end) Refill(row);
    return block_;
  }

  /// The value at global row `row`.
  T At(std::int64_t row) {
    if (row < block_.begin || row >= block_.end) Refill(row);
    return block_.data[row - block_.begin];
  }

  /// Best-effort read-ahead of rows [begin, end); no-op when resident.
  void PrefetchRun(std::int64_t begin, std::int64_t end) {
    if (cursor_.has_value()) cursor_->PrefetchRun(begin, end);
  }

  /// First storage error of a paged reader (see SegmentStore::Cursor);
  /// always ok when resident.
  const Status& status() const {
    return cursor_.has_value() ? cursor_->status() : kResidentOk;
  }

  /// Ends one unit of work (a summary run): folds this reader's status
  /// into `*status`, then lets a paged reader start over as if freshly
  /// opened — no page pinned, no error latched — so consecutive units
  /// pin exactly the pages per-unit readers would. No-op when resident.
  void EndRun(Status* status) {
    if (!cursor_.has_value()) return;
    status->Update(cursor_->status());
    cursor_->Restart();
    block_ = {};
  }

 private:
  inline static const Status kResidentOk{};

  void Refill(std::int64_t row) {
    MDW_CHECK(cursor_.has_value(), "row outside the resident column");
    block_ = cursor_->Fetch<T>(row);
  }

  ColumnBlock<T> block_;
  std::optional<SegmentStore::Cursor> cursor_;
};

}  // namespace mdw::storage

#endif  // MDW_STORAGE_COLUMN_READER_H_
