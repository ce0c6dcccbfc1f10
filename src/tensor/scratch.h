// Per-thread scratch memory for kernel temporaries: im2col matrices, packed
// GEMM panels, and the column-gradient buffer of the conv backward pass.
// Buffers are grow-only and slot-based, so a kernel can hold several live
// scratch spans at once (each slot is backed by its own allocation —
// requesting one slot never invalidates a span taken from another) and
// repeated kernel calls reuse the high-water-mark allocation instead of
// paying a fresh heap round-trip per forward/backward.
//
// Every buffer starts at a kAlignment (64-byte) boundary: one full cache
// line, and twice the 32-byte AVX2 vector width, so the GEMM tiles can use
// aligned vector loads on packed panels (a kNR=8-float panel row is 32
// bytes, a kNR=8-double one 64 bytes, from an aligned base) and no
// im2col/panel access ever needs an unaligned-fallback path.
//
// Lifetime rules:
//  * ScratchArena::local() returns this thread's arena; spans taken from it
//    are valid until the same (slot, type) pair is requested again on the
//    same thread, and must never be handed to another thread for writing —
//    with one narrow exception: a caller-thread span may be written by
//    parallel_for workers when every task writes a disjoint,
//    caller-assigned element range (the im2col channel blocks in kIm2col,
//    the packed panels in kPanel, the per-row loss subtotals in kRowStat;
//    no two tasks ever touch the same element, and the caller only reads
//    the span back, or hands it to a later fan-out, after the fan-out
//    joins).
//  * Kernels that share a scratch buffer across util::parallel_for tasks
//    (e.g. the im2col matrix and the packed panels read by every GEMM
//    task) allocate it from the *calling* thread's arena before the
//    fan-out, and workers only read it.
//  * Worker-private temporaries (the few-row accumulator row, dcol,
//    softened probability rows) come from the worker's own thread-local
//    arena inside the task body.
//
// Observability: cadmc.kernel.arena.reuse_hits counts requests served from
// existing capacity, cadmc.kernel.arena.grows / grow_bytes count the
// (amortised-away) allocations.
#pragma once

#include <cstddef>
#include <span>

namespace cadmc::tensor {

class ScratchArena {
 public:
  /// Every span handed out starts at this alignment (bytes).
  static constexpr std::size_t kAlignment = 64;

  /// One id per concurrently-live buffer a kernel needs.
  enum Slot {
    kIm2col = 0,  // im2col matrix shared across GEMM tasks (caller thread)
    kPanel,       // a whole GEMM's packed B-panels (caller thread; the pack
                  // tasks write disjoint caller-assigned panels, the GEMM
                  // tasks only read — see the lifetime-rule exception)
    kAccRow,      // double accumulator row of the scalar few-row GEMM
                  // (worker thread)
    kPackA,       // packed/transposed A operand (matmul_tn)
    kColGrad,     // dcol buffer in conv2d_backward (double deterministic,
                  // float fast mode — the two element types never alias)
    kLossRow,     // softened probability rows of the loss kernels (worker
                  // thread, float)
    kRowStat,     // per-row loss subtotals (double, caller thread; workers
                  // write disjoint caller-assigned elements — see the
                  // lifetime-rule exception above)
    kSlotCount
  };

  /// This thread's arena (thread_local, created on first use).
  static ScratchArena& local();

  /// A span of `n` floats backed by `slot`, 64-byte aligned. Contents are
  /// unspecified — the caller must fully overwrite whatever it reads back.
  std::span<float> floats(Slot slot, std::size_t n);
  /// A span of `n` doubles backed by `slot`, 64-byte aligned.
  std::span<double> doubles(Slot slot, std::size_t n);

  /// Total bytes currently retained across every slot of *this* arena.
  std::size_t capacity_bytes() const;

  /// Drops all backing storage (tests use this to reset the reuse metrics'
  /// denominator; kernels never call it).
  void release();

  ScratchArena() = default;
  ~ScratchArena();
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

 private:
  /// One grow-only aligned allocation. Growth never preserves contents —
  /// the spans' contents are documented as unspecified.
  struct Buffer {
    std::byte* data = nullptr;
    std::size_t bytes = 0;  // capacity of `data`
  };

  std::span<std::byte> grab(Buffer& buf, std::size_t bytes,
                            std::size_t elem_size);

  Buffer float_slots_[kSlotCount];
  Buffer double_slots_[kSlotCount];
};

}  // namespace cadmc::tensor
