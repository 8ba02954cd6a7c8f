// bench_micro_serialization -- microbenchmark of the cereal stand-in
// (supporting Sec. 4.1.2: serialization cost is "a small amount of
// computing overhead").
//
// Run with --quick (or TRIPOLL_BENCH_QUICK=1) for the CI smoke: small
// sizes, short measurement windows, same benchmark names.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "bench_micro_main.hpp"
#include "core/packed_batch.hpp"
#include "graph/types.hpp"
#include "serial/buffer.hpp"
#include "serial/hash.hpp"
#include "serial/serialize.hpp"

namespace ts = tripoll::serial;

namespace {

void BM_PackU64(benchmark::State& state) {
  ts::byte_buffer buf(1 << 20);
  std::uint64_t v = 0xDEADBEEF;
  for (auto _ : state) {
    buf.clear();
    for (int i = 0; i < 1024; ++i) ts::pack(buf, v);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * 1024 * sizeof(v));
}

void BM_PackString(benchmark::State& state) {
  ts::byte_buffer buf(1 << 20);
  const std::string s(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    buf.clear();
    for (int i = 0; i < 256; ++i) ts::pack(buf, s);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * 256 * static_cast<std::int64_t>(s.size()));
}

void BM_PackVectorPod(benchmark::State& state) {
  ts::byte_buffer buf(1 << 22);
  std::vector<std::uint64_t> v(static_cast<std::size_t>(state.range(0)), 42);
  for (auto _ : state) {
    buf.clear();
    ts::pack(buf, v);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(v.size()) * 8);
}

void BM_RoundtripWedgeMessage(benchmark::State& state) {
  // The hot message of a survey: (handle, q, p, meta, meta, candidates).
  struct candidate {
    std::uint64_t r, deg;
  };
  std::vector<candidate> suffix(static_cast<std::size_t>(state.range(0)),
                                candidate{7, 9});
  ts::byte_buffer buf(1 << 22);
  for (auto _ : state) {
    buf.clear();
    ts::pack(buf, std::uint32_t{3}, std::uint64_t{11}, std::uint64_t{13}, suffix);
    ts::buffer_reader rd(buf.view());
    std::uint32_t h;
    std::uint64_t q, p;
    std::vector<candidate> out;
    ts::unpack(rd, h, q, p, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(suffix.size()) * 16);
}

void BM_RoundtripWedgeMessageSum(benchmark::State& state) {
  // Owning-vector receive path WITH element access (sum), the before side
  // of the zero-copy comparison: unpack copies every candidate into a
  // fresh vector, then the handler walks them.
  struct candidate {
    std::uint64_t r, deg;
  };
  std::vector<candidate> suffix(static_cast<std::size_t>(state.range(0)),
                                candidate{7, 9});
  ts::byte_buffer buf(1 << 22);
  for (auto _ : state) {
    buf.clear();
    ts::pack(buf, std::uint32_t{3}, std::uint64_t{11}, std::uint64_t{13}, suffix);
    ts::buffer_reader rd(buf.view());
    std::uint32_t h;
    std::uint64_t q, p;
    std::vector<candidate> out;
    ts::unpack(rd, h, q, p, out);
    std::uint64_t sum = 0;
    for (const candidate& c : out) sum += c.r + c.deg;
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(suffix.size()) * 16);
}

void BM_RoundtripWedgeMessageView(benchmark::State& state) {
  // Zero-copy receive path: the candidate batch is unpacked as a wire_span
  // viewing the serialized bytes (no allocation, no element copies), the
  // way the survey engine's wedge handlers consume it.  Elements are still
  // touched (summed) so the comparison against the vector roundtrip above
  // reflects access through the view, not just skipping the copy.
  struct candidate {
    std::uint64_t r, deg;
  };
  std::vector<candidate> suffix(static_cast<std::size_t>(state.range(0)),
                                candidate{7, 9});
  ts::byte_buffer buf(1 << 22);
  for (auto _ : state) {
    buf.clear();
    ts::pack(buf, std::uint32_t{3}, std::uint64_t{11}, std::uint64_t{13},
             ts::as_wire_span(suffix));
    ts::buffer_reader rd(buf.view());
    std::uint32_t h;
    std::uint64_t q, p;
    ts::wire_span<candidate> out;
    ts::unpack(rd, h, q, p, out);
    std::uint64_t sum = 0;
    for (const candidate c : out) sum += c.r + c.deg;
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(suffix.size()) * 16);
}

void BM_RoundtripPackedBatch(benchmark::State& state) {
  // The survey's wire form of the same message (core/packed_batch.hpp):
  // the sender encodes (rank delta, r) varints straight into the buffer,
  // the receiver decodes into reusable scratch and walks it.  Entries are
  // <+ sorted (rank first, small ranks, ids below 2^20) like a real
  // adjacency suffix.  Reports ns and wire bytes per entry.
  using batch = tripoll::core::packed_batch<tripoll::graph::none>;
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<batch::entry> suffix(n);
  for (std::size_t k = 0; k < n; ++k) {
    suffix[k].r = ts::splitmix64(k) % (1u << 20);
    suffix[k].r_rank = 3 + k / 4;
  }
  const auto fill = [&](batch::encoder& enc) {
    for (const auto& e : suffix) enc.push(e.r, e.r_rank, e.meta);
  };
  ts::byte_buffer buf(1 << 22);
  std::vector<batch::entry> scratch;
  for (auto _ : state) {
    buf.clear();
    ts::pack(buf, std::uint32_t{3}, std::uint64_t{11}, std::uint64_t{13}, batch::encode(fill));
    ts::buffer_reader rd(buf.view());
    std::uint32_t h;
    std::uint64_t q, p;
    batch out;
    ts::unpack(rd, h, q, p, out);
    out.decode(scratch);
    std::uint64_t sum = 0;
    for (const auto& e : scratch) sum += e.r + e.r_rank;
    benchmark::DoNotOptimize(sum);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_entry"] = benchmark::Counter(
      static_cast<double>(state.iterations() * n),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert, benchmark::Counter::kIs1000);
  // Batch bytes (header included) per entry: the message minus handle, q, p.
  state.counters["bytes_per_entry"] =
      static_cast<double>(buf.size() - 4 - 16) / static_cast<double>(n);
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n) * 16);
}

void BM_UnpackStringView(benchmark::State& state) {
  // Zero-copy string deserialization: string_view pointing into the buffer.
  ts::byte_buffer buf;
  const std::string s(static_cast<std::size_t>(state.range(0)), 'y');
  for (int i = 0; i < 256; ++i) ts::pack(buf, s);
  for (auto _ : state) {
    ts::buffer_reader rd(buf.view());
    std::string_view out;
    std::size_t total = 0;
    for (int i = 0; i < 256; ++i) {
      ts::unpack(rd, out);
      total += out.size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetBytesProcessed(state.iterations() * 256 * static_cast<std::int64_t>(s.size()));
}

void BM_UnpackString(benchmark::State& state) {
  ts::byte_buffer buf;
  const std::string s(static_cast<std::size_t>(state.range(0)), 'y');
  for (int i = 0; i < 256; ++i) ts::pack(buf, s);
  for (auto _ : state) {
    ts::buffer_reader rd(buf.view());
    std::string out;
    for (int i = 0; i < 256; ++i) ts::unpack(rd, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * 256 * static_cast<std::int64_t>(s.size()));
}

void BM_Varint(benchmark::State& state) {
  ts::byte_buffer buf;
  for (auto _ : state) {
    buf.clear();
    ts::writer w(buf);
    for (std::uint64_t i = 0; i < 4096; ++i) w.write_varint(i * i);
    ts::buffer_reader rd(buf.view());
    ts::reader r(rd);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < 4096; ++i) sum += r.read_varint();
    benchmark::DoNotOptimize(sum);
  }
}

void register_benchmarks(bool quick) {
  const double min_time = quick ? 0.02 : 0.5;
  auto tune = [&](benchmark::internal::Benchmark* b) { b->MinTime(min_time); };

  tune(benchmark::RegisterBenchmark("BM_PackU64", BM_PackU64));

  const std::vector<std::int64_t> string_sizes =
      quick ? std::vector<std::int64_t>{8, 64} : std::vector<std::int64_t>{8, 64, 1024};
  for (auto n : string_sizes) {
    tune(benchmark::RegisterBenchmark("BM_PackString", BM_PackString)->Arg(n));
    tune(benchmark::RegisterBenchmark("BM_UnpackString", BM_UnpackString)->Arg(n));
    tune(benchmark::RegisterBenchmark("BM_UnpackStringView", BM_UnpackStringView)->Arg(n));
  }

  const std::vector<std::int64_t> pod_sizes =
      quick ? std::vector<std::int64_t>{64, 4096}
            : std::vector<std::int64_t>{64, 4096, 262144};
  for (auto n : pod_sizes) {
    tune(benchmark::RegisterBenchmark("BM_PackVectorPod", BM_PackVectorPod)->Arg(n));
  }

  const std::vector<std::int64_t> wedge_sizes =
      quick ? std::vector<std::int64_t>{4, 64} : std::vector<std::int64_t>{4, 64, 1024};
  for (auto n : wedge_sizes) {
    tune(benchmark::RegisterBenchmark("BM_RoundtripWedgeMessage", BM_RoundtripWedgeMessage)
             ->Arg(n));
    tune(benchmark::RegisterBenchmark("BM_RoundtripWedgeMessageSum",
                                      BM_RoundtripWedgeMessageSum)
             ->Arg(n));
    tune(benchmark::RegisterBenchmark("BM_RoundtripWedgeMessageView",
                                      BM_RoundtripWedgeMessageView)
             ->Arg(n));
    tune(benchmark::RegisterBenchmark("BM_RoundtripPackedBatch", BM_RoundtripPackedBatch)
             ->Arg(n));
  }

  tune(benchmark::RegisterBenchmark("BM_Varint", BM_Varint));

}

}  // namespace

int main(int argc, char** argv) {
  return tripoll::bench::run_micro_benchmark(
      argc, argv, [](bool quick) { register_benchmarks(quick); });
}
