// Micro — non-contiguous RMA (paper §II: "UPC++ also supports
// non-contiguous RMA transfers (vector, indexed and strided), enabling
// programmers to conveniently express more complex patterns of data
// movement, such as those required with the use of multidimensional
// arrays").
//
// Measures the cost of moving a 2-D submatrix (column panel of a
// row-major matrix) three ways:
//   1. rput_strided — one call, the library walks the shape;
//   2. rput_irregular — one fragment per row;
//   3. manual pack + contiguous rput + remote-side scatter via RPC — what
//      an application does without non-contiguous support.
// Plus a fragment-size sweep showing the per-fragment overhead that makes
// tiny fragments expensive (why the paper calls these *productivity*
// features: below a crossover, packing wins).
#include <cstdio>
#include <cstring>
#include <vector>

#include "arch/timer.hpp"
#include "bench_util.hpp"
#include "upcxx/upcxx.hpp"

namespace {

constexpr std::size_t kRows = 256, kCols = 256;  // full matrix (doubles)
constexpr std::size_t kPanel = 32;               // panel width to transfer

double bench_one(const std::function<void()>& op, int reps) {
  op();  // warm
  const double t0 = arch::now_s();
  for (int i = 0; i < reps; ++i) op();
  return (arch::now_s() - t0) / reps * 1e6;  // us/op
}

}  // namespace

int main() {
  std::printf("Micro — non-contiguous RMA vs manual packing (2 ranks)\n\n");
  benchutil::ShapeChecks checks;
  const int reps = benchutil::reps(2000, 50);

  // The shape checks below state direct-wire claims (no staging copy, no
  // target CPU), so the wire is pinned whatever UPCXX_RMA_WIRE says.
  gex::Config cfg = gex::Config::from_env();
  cfg.ranks = 2;
  cfg.rma_wire = gex::RmaWire::kDirect;
  upcxx::run(cfg, [&] {
    const int me = upcxx::rank_me();
    static upcxx::global_ptr<double> remote_mat;
    auto mine = upcxx::new_array<double>(kRows * kCols);
    if (me == 1)
      upcxx::rpc(0, [](upcxx::global_ptr<double> p) { remote_mat = p; },
                 mine)
          .wait();
    upcxx::barrier();

    if (me == 0) {
      std::vector<double> local(kRows * kCols, 1.5);
      const std::size_t bytes = kRows * kPanel * sizeof(double);

      // 1. strided: one call for the whole panel.
      const double strided_us = bench_one(
          [&] {
            upcxx::rput_strided<2>(
                local.data(),
                {static_cast<std::ptrdiff_t>(kCols * sizeof(double)),
                 static_cast<std::ptrdiff_t>(sizeof(double))},
                remote_mat,
                {static_cast<std::ptrdiff_t>(kCols * sizeof(double)),
                 static_cast<std::ptrdiff_t>(sizeof(double))},
                {kRows, kPanel})
                .wait();
          },
          reps);

      // 2. irregular: one fragment per row.
      std::vector<upcxx::src_fragment<double>> srcs(kRows);
      std::vector<upcxx::dst_fragment<double>> dsts(kRows);
      const double irregular_us = bench_one(
          [&] {
            for (std::size_t r = 0; r < kRows; ++r) {
              srcs[r] = {local.data() + r * kCols, kPanel};
              dsts[r] = {remote_mat + r * kCols, kPanel};
            }
            upcxx::rput_irregular(srcs, dsts).wait();
          },
          reps);

      // 3. manual: pack into a staging buffer, one contiguous rput into a
      // remote staging area, RPC scatters at the target.
      static upcxx::global_ptr<double> stage;
      stage = upcxx::rpc(1, [] {
                return upcxx::allocate<double>(kRows * kPanel);
              }).wait();
      std::vector<double> pack(kRows * kPanel);
      const double manual_us = bench_one(
          [&] {
            for (std::size_t r = 0; r < kRows; ++r)
              std::memcpy(pack.data() + r * kPanel,
                          local.data() + r * kCols, kPanel * sizeof(double));
            upcxx::rput(pack.data(), stage, kRows * kPanel).wait();
            upcxx::rpc(1, [](upcxx::global_ptr<double> s,
                             upcxx::global_ptr<double> m) {
              const double* in = s.local();
              double* out = m.local();
              for (std::size_t r = 0; r < kRows; ++r)
                std::memcpy(out + r * kCols, in + r * kPanel,
                            kPanel * sizeof(double));
            }, stage, remote_mat).wait();
          },
          reps);

      std::printf("-- %zux%zu panel of a %zux%zu row-major matrix (%s) --\n",
                  kRows, kPanel, kRows, kCols,
                  benchutil::human_size(bytes).c_str());
      std::printf("  %-34s %8.2f us  (%6.2f GB/s)\n", "rput_strided",
                  strided_us, bytes / strided_us / 1e3);
      std::printf("  %-34s %8.2f us  (%6.2f GB/s)\n",
                  "rput_irregular (row fragments)", irregular_us,
                  bytes / irregular_us / 1e3);
      std::printf("  %-34s %8.2f us  (%6.2f GB/s)\n",
                  "manual pack + rput + RPC scatter", manual_us,
                  bytes / manual_us / 1e3);
      checks.expect(strided_us < manual_us,
                    "one-call strided beats pack+put+scatter (no staging "
                    "copy, no target CPU)");
      checks.expect(irregular_us < manual_us * 1.5,
                    "irregular within 1.5x of manual (no staging, but "
                    "per-fragment bookkeeping)");

      // Fragment-size sweep: fixed volume, varying fragment count.
      std::printf("\n-- fragment-size sweep, fixed 256KB volume --\n");
      std::printf("%12s %12s %14s\n", "frag bytes", "fragments", "us/op");
      const std::size_t total = kRows * kCols;  // doubles
      double us_small = 0, us_big = 0;
      for (std::size_t frag = 8; frag <= total; frag *= 16) {
        const std::size_t nfrag = total / frag;
        std::vector<upcxx::src_fragment<double>> s(nfrag);
        std::vector<upcxx::dst_fragment<double>> d(nfrag);
        const double us = bench_one(
            [&] {
              for (std::size_t i = 0; i < nfrag; ++i) {
                s[i] = {local.data() + i * frag, frag};
                d[i] = {remote_mat + i * frag, frag};
              }
              upcxx::rput_irregular(s, d).wait();
            },
            std::max(reps / 4, 10));
        std::printf("%12zu %12zu %12.2fus\n", frag * sizeof(double), nfrag,
                    us);
        if (frag == 8) us_small = us;
        us_big = us;
      }
      checks.expect(us_small > us_big * 2.0,
                    "tiny fragments pay per-fragment overhead (>=2x slower "
                    "than few large fragments at fixed volume)");
      upcxx::rpc(1, [](upcxx::global_ptr<double> s) {
        upcxx::deallocate(s);
      }, stage).wait();
    }
    upcxx::barrier();
    upcxx::delete_array(mine, kRows * kCols);
    upcxx::barrier();
  });

  return checks.summary("micro_noncontig");
}
