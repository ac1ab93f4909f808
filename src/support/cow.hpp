// Refcounted copy-on-write containers for the analysis abstract states.
//
// The fixpoint engines propagate whole abstract states along edges:
// "out = in; transfer(out); join out into every successor". Before this
// layer, every one of those assignments deep-copied per-set
// `FlatMap` images (32 sets x must/may x i/d per cache visit) even when
// the transfer touched two of them. `CowPtr`/`CowVec` make the copy an
// O(1) refcount bump and defer the real work to the first mutation of
// each leaf — structural sharing, so join/propagation cost becomes
// proportional to *changed* state, the same sparsity bet as the flat
// states themselves (support/flat_map.hpp).
//
//   CowPtr<T>:  one shared immutable value. Copy = snapshot (refcount
//               bump); `mut()` = detach-on-mutate (clones exactly when
//               the value is shared); `same_as` = pointer identity.
//   CowVec<T>:  a vector of CowPtr leaves behind a CowPtr spine. Copy =
//               O(1) snapshot of the whole vector; `mutate(i)` detaches
//               the spine (refcount bumps only) and then leaf i; a null
//               leaf canonically represents a default-constructed T, so
//               e.g. a cold abstract cache allocates no images at all.
//
// ## Join gating by pointer identity
//
// `same_as` enables the key fast path: joining a leaf with *itself* is
// always the identity (join(x, x) = x in any semilattice), so a
// pointer-equal leaf can be skipped with no merge and no change report.
// This is sound precisely because sharing is only ever created by
// snapshot (copy) — two pointer-equal leaves are the same value by
// construction. The reverse is not true (equal values may live in
// different leaves), so pointer identity may only ever *skip* work,
// never substitute for value equality where inequality matters.
//
// ## Thread-safety contract
//
// Snapshots may be shared across ThreadPool workers under the
// instance-rounds model (support/instance_rounds.hpp): each state slot
// is owned by one instance, but slots of different instances may share
// leaves. Safety follows the classic COW protocol:
//
//   - shared blocks are immutable: `mut()` never writes a block whose
//     refcount exceeds one, it clones first;
//   - refcount increments are relaxed (a copy is always made from a
//     live reference), the decrement is acq_rel, and the uniqueness
//     probe in `mut()` is an *acquire* load — pairing with the release
//     half of another worker's final decrement, so the clone/in-place
//     decision happens-after every access that other worker made
//     through its reference. (A `shared_ptr::use_count()` relaxed load
//     would NOT give this edge; that is why the refcount is hand-rolled.)
//
// Under WCET_COW_CHECK (defined by the WCET_SANITIZE builds) the
// protocol is audited at runtime: every detach re-verifies uniqueness
// before handing out a mutable reference, so an in-place mutation
// racing a shared snapshot trips a hard failure instead of silent
// corruption.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/diag.hpp"

#if defined(WCET_COW_CHECK)
#define WCET_COW_ASSERT(cond, msg) WCET_CHECK(cond, msg)
#else
#define WCET_COW_ASSERT(cond, msg) \
  do {                             \
  } while (false)
#endif

namespace wcet {

// Allocation telemetry for tracked COW leaves (the abstract cache set
// images): total leaf clones/creations, currently live leaves, and the
// high-water mark. Counters are process-global and monotone within one
// measurement window; `reset_window` zeroes the alloc count and
// restarts the peak from the current live count. Telemetry only — never
// consulted by any analysis decision, so the relaxed ordering is fine.
struct CowLeafStats {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::int64_t> live{0};
  std::atomic<std::int64_t> peak{0};

  void note_alloc() {
    allocs.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t now = live.fetch_add(1, std::memory_order_relaxed) + 1;
    std::int64_t seen = peak.load(std::memory_order_relaxed);
    while (now > seen &&
           !peak.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
  }
  void note_free() { live.fetch_sub(1, std::memory_order_relaxed); }
  void reset_window() {
    allocs.store(0, std::memory_order_relaxed);
    peak.store(live.load(std::memory_order_relaxed), std::memory_order_relaxed);
  }
};

inline CowLeafStats& cow_leaf_stats() {
  static CowLeafStats stats;
  return stats;
}

// Shared immutable value with detach-on-mutate. A default-constructed
// CowPtr holds no block and reads as a default-constructed T (the
// canonical "empty" representation — cold states allocate nothing).
// `TrackStats`: account block lifetimes in cow_leaf_stats() (enabled
// for CowVec leaves only; spines and value-state maps are not "set
// images").
template <typename T, bool TrackStats = false>
class CowPtr {
public:
  CowPtr() = default;
  explicit CowPtr(T value) : block_(new Block(std::move(value))) {}
  CowPtr(const CowPtr& other) : block_(other.block_) { acquire(); }
  CowPtr(CowPtr&& other) noexcept : block_(other.block_) { other.block_ = nullptr; }
  CowPtr& operator=(const CowPtr& other) {
    if (block_ != other.block_) {
      release();
      block_ = other.block_;
      acquire();
    }
    return *this;
  }
  CowPtr& operator=(CowPtr&& other) noexcept {
    if (this != &other) {
      release();
      block_ = other.block_;
      other.block_ = nullptr;
    }
    return *this;
  }
  ~CowPtr() { release(); }

  // Shared read access; null reads as the canonical empty T.
  const T& operator*() const { return block_ != nullptr ? block_->value : empty_value(); }
  const T* operator->() const { return &**this; }

  bool null() const { return block_ == nullptr; }
  // Pointer identity: true implies *this and *other are the same value.
  bool same_as(const CowPtr& other) const { return block_ == other.block_; }
  // Opaque identity token: equal tokens imply equal values (all null
  // pointers share one token — they are all the canonical empty T).
  // Tokens are only meaningful while some CowPtr still holds the block;
  // consumers must not compare tokens across block lifetimes.
  const void* identity() const { return block_; }

  // True when this pointer is the block's only owner (acquire-ordered;
  // see the header comment). A unique block can be mutated in place.
  bool unique() const {
    return block_ != nullptr && block_->refs.load(std::memory_order_acquire) == 1;
  }

  // Detach-on-mutate: returns a uniquely owned mutable value, cloning
  // the block exactly when it is shared.
  T& mut() {
    if (block_ == nullptr) {
      block_ = new Block();
    } else if (!unique()) {
      Block* fresh = new Block(block_->value);
      release();
      block_ = fresh;
    }
    WCET_COW_ASSERT(unique(), "cow: mutable reference to a shared block");
    return block_->value;
  }

  // Drop back to the canonical empty representation.
  void reset() { release(); }

  // Value equality with the pointer-identity fast path.
  bool operator==(const CowPtr& other) const {
    return same_as(other) || **this == *other;
  }
  bool operator!=(const CowPtr& other) const { return !(*this == other); }

private:
  struct Block {
    std::atomic<std::uint32_t> refs{1};
    T value;
    Block() { note_alloc(); }
    explicit Block(T v) : value(std::move(v)) { note_alloc(); }
    ~Block() {
      if constexpr (TrackStats) cow_leaf_stats().note_free();
    }
    static void note_alloc() {
      if constexpr (TrackStats) cow_leaf_stats().note_alloc();
    }
  };

  static const T& empty_value() {
    static const T empty{};
    return empty;
  }

  void acquire() {
    if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void release() {
    if (block_ != nullptr &&
        block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete block_;
    }
    block_ = nullptr;
  }

  Block* block_ = nullptr;
};

// Fixed-size vector of COW leaves behind a COW spine: the
// representation of per-set abstract cache images.
//
//   copy/assign        O(1) snapshot (spine refcount bump)
//   at(i)              shared read; null leaf reads as the empty T
//   mutate(i)          detach spine (leaf refcount bumps), detach leaf i
//   set_leaf/clear     replace leaf i wholesale (no clone of the old)
//   share_leaf_from    alias another vector's leaf i into this one
//   same_as / leaf_same_as   pointer-identity join gates
template <typename T>
class CowVec {
public:
  using Leaf = CowPtr<T, /*TrackStats=*/true>;

  CowVec() = default;
  explicit CowVec(std::size_t n) {
    if (n > 0) spine_.mut().resize(n);
  }

  std::size_t size() const { return spine_->size(); }

  const T& at(std::size_t i) const { return *(*spine_)[i]; }
  bool leaf_null(std::size_t i) const { return (*spine_)[i].null(); }

  // Whole-vector pointer identity: true implies equal contents.
  bool same_as(const CowVec& other) const { return spine_.same_as(other.spine_); }
  // Per-leaf pointer identity (two nulls are identical — both empty).
  bool leaf_same_as(std::size_t i, const CowVec& other) const {
    return (*spine_)[i].same_as((*other.spine_)[i]);
  }
  // Borrowed view of the contiguous leaf array (no refcount traffic).
  // A CowPtr is a single pointer, so identity scans over this array
  // vectorize — the join fast paths diff two states' leaf arrays in a
  // handful of SIMD compares.
  const Leaf* leaf_data() const { return spine_->data(); }

  // Detach-on-mutate access to leaf i.
  T& mutate(std::size_t i) { return spine_.mut()[i].mut(); }
  // Whether mutate(i) would write in place: both the spine and leaf i
  // are uniquely owned (so no clone happens and no sharer can observe
  // the write).
  bool mutates_in_place(std::size_t i) const {
    return spine_.unique() && (*spine_)[i].unique();
  }
  // Install `value` as a fresh leaf (the previous leaf is released,
  // never cloned).
  void set_leaf(std::size_t i, T value) { spine_.mut()[i] = Leaf(std::move(value)); }
  // Reset leaf i to the canonical empty representation.
  void clear_leaf(std::size_t i) { spine_.mut()[i].reset(); }
  // Alias `other`'s leaf i: afterwards leaf_same_as(i, other) holds.
  void share_leaf_from(std::size_t i, const CowVec& other) {
    spine_.mut()[i] = (*other.spine_)[i];
  }

  bool operator==(const CowVec& other) const {
    if (same_as(other)) return true;
    if (size() != other.size()) return false;
    for (std::size_t i = 0; i < size(); ++i) {
      if (!leaf_same_as(i, other) && !(at(i) == other.at(i))) return false;
    }
    return true;
  }
  bool operator!=(const CowVec& other) const { return !(*this == other); }

private:
  using Spine = std::vector<Leaf>;
  CowPtr<Spine> spine_;
};

} // namespace wcet
