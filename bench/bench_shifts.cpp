// Shift-phase benchmarks: the Lemma 4.2 statistics (experiment E4) and the
// rank-strategy ablation behind the bucketed rank (ISSUE 7) — comparator
// sort vs bucketed counting rank, per shift distribution × tie-break.
//
//   ./bench_shifts [out.json] [--n N] [--reps R]
//
// Writes BENCH_shifts.json (schema: docs/BENCHMARKS.md) with one ablation
// row per (distribution, tie_break): the seconds the retired
// parallel_sort spends building the rank vs the bucketed pass that
// replaced it, on identical keys. The orders are asserted equal — the
// ablation doubles as an identity check at bench scale.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "machine.hpp"
#include "mpx/mpx.hpp"
#include "parallel/sort.hpp"
#include "table.hpp"

namespace {

const char* distribution_name(mpx::ShiftDistribution d) {
  switch (d) {
    case mpx::ShiftDistribution::kExponential: return "exponential";
    case mpx::ShiftDistribution::kPermutationQuantile: return "quantile";
    case mpx::ShiftDistribution::kUniform: return "uniform";
  }
  return "?";
}

const char* tie_break_name(mpx::TieBreak tb) {
  switch (tb) {
    case mpx::TieBreak::kFractionalShift: return "frac";
    case mpx::TieBreak::kRandomPermutation: return "perm";
    case mpx::TieBreak::kLexicographic: return "lex";
  }
  return "?";
}

/// The retired rank construction: comparator sort of the tie-break keys.
/// For frac, sort by (frac(delta_max - delta), id); for perm, sort by the
/// hash keys; lex has no sort (rank = id) and serves as the floor.
double time_sort_rank(const mpx::Shifts& s, mpx::TieBreak tb,
                      std::uint64_t seed, int reps,
                      std::vector<std::uint32_t>& rank_out) {
  using namespace mpx;
  const std::size_t n = s.delta.size();
  std::vector<std::uint32_t> order(n);
  double best = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    std::iota(order.begin(), order.end(), 0u);
    switch (tb) {
      case TieBreak::kFractionalShift: {
        parallel_sort(std::span<std::uint32_t>(order),
                      [&](std::uint32_t a, std::uint32_t b) {
                        const double sa = s.delta_max - s.delta[a];
                        const double sb = s.delta_max - s.delta[b];
                        const double fa = sa - std::floor(sa);
                        const double fb = sb - std::floor(sb);
                        return fa != fb ? fa < fb : a < b;
                      });
        break;
      }
      case TieBreak::kRandomPermutation: {
        const std::uint64_t stream = hash_stream(seed, 0x7065726d75746174ULL);
        parallel_sort(std::span<std::uint32_t>(order),
                      [stream](std::uint32_t a, std::uint32_t b) {
                        const std::uint64_t ka = hash_stream(stream, a);
                        const std::uint64_t kb = hash_stream(stream, b);
                        return ka != kb ? ka < kb : a < b;
                      });
        break;
      }
      case TieBreak::kLexicographic:
        break;
    }
    rank_out.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) rank_out[order[i]] = i;
    best = std::min(best, timer.seconds());
  }
  return best;
}

struct Row {
  const char* distribution;
  const char* tie_break;
  double sort_seconds = 0.0;
  double bucketed_seconds = 0.0;

  [[nodiscard]] double speedup() const {
    return bucketed_seconds > 0.0 ? sort_seconds / bucketed_seconds : 0.0;
  }
};

void write_json(const std::string& path, mpx::vertex_t n,
                const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"shifts\",\n");
  mpx::bench::write_machine_json(f);
  std::fprintf(f, "  \"threads\": %d,\n  \"n\": %u,\n", mpx::max_threads(), n);
  std::fprintf(f, "  \"ablation\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"distribution\": \"%s\", \"tie_break\": \"%s\", "
                 "\"sort_rank_seconds\": %.6f, "
                 "\"bucketed_rank_seconds\": %.6f, \"speedup\": %.2f}%s\n",
                 r.distribution, r.tie_break, r.sort_seconds,
                 r.bucketed_seconds, r.speedup(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::printf("wrote %s\n", path.c_str());
  std::fclose(f);
}

void lemma42_section() {
  using namespace mpx;
  bench::section("E4 / Lemma 4.2: max shift vs H_n/beta");

  bench::Table table({"n", "beta", "mean_dmax", "Hn/beta", "ratio",
                      "tail_2lnn", "trials"});
  const int kTrials = 50;
  for (const vertex_t n : {1024u, 16384u, 262144u}) {
    double h_n = 0.0;
    for (vertex_t i = 1; i <= n; ++i) h_n += 1.0 / i;
    for (const double beta : {0.01, 0.1, 0.5}) {
      double sum = 0.0;
      int tail = 0;
      for (int t = 0; t < kTrials; ++t) {
        PartitionOptions opt;
        opt.beta = beta;
        opt.seed = static_cast<std::uint64_t>(t) * 31 + 1;
        const Shifts s = generate_shifts(n, opt);
        sum += s.delta_max;
        if (s.delta_max > 2.0 * std::log(static_cast<double>(n)) / beta) {
          ++tail;
        }
      }
      const double mean = sum / kTrials;
      table.row({bench::Table::integer(n), bench::Table::num(beta, 2),
                 bench::Table::num(mean, 2),
                 bench::Table::num(h_n / beta, 2),
                 bench::Table::num(mean / (h_n / beta), 3),
                 bench::Table::integer(static_cast<std::uint64_t>(tail)),
                 bench::Table::integer(kTrials)});
    }
  }
  std::printf(
      "\nexpected shape: ratio -> 1.0 (Lemma 4.2 expectation); tail_2lnn "
      "events rare (w.h.p. bound, ~1/n each trial).\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mpx;

  std::string out = "BENCH_shifts.json";
  vertex_t n = 4000000;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--n" && i + 1 < argc) {
      n = static_cast<vertex_t>(std::atoll(argv[++i]));
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else {
      out = arg;
    }
  }

  lemma42_section();

  bench::section("rank-strategy ablation: comparator sort vs bucketed rank");
  std::printf("threads: %d, n=%u, reps=%d\n", max_threads(), n, reps);

  const std::uint64_t seed = 2013;
  const double beta = 0.1;
  bench::Table table(
      {"distribution", "tie_break", "sort", "bucketed", "speedup"});
  std::vector<Row> rows;
  ShiftWorkspace ws;
  Shifts s;
  std::vector<std::uint32_t> sort_rank;
  for (const ShiftDistribution dist :
       {ShiftDistribution::kExponential, ShiftDistribution::kPermutationQuantile,
        ShiftDistribution::kUniform}) {
    for (const TieBreak tb :
         {TieBreak::kFractionalShift, TieBreak::kRandomPermutation,
          TieBreak::kLexicographic}) {
      PartitionOptions opt;
      opt.beta = beta;
      opt.seed = seed;
      opt.distribution = dist;
      opt.tie_break = tb;
      generate_shifts(n, opt, s, &ws);  // warm the workspace
      double bucketed = 1e100;
      for (int rep = 0; rep < reps; ++rep) {
        generate_shifts(n, opt, s, &ws);
        bucketed = std::min(bucketed, ws.last_rank_seconds);
      }
      Row row;
      row.distribution = distribution_name(dist);
      row.tie_break = tie_break_name(tb);
      row.bucketed_seconds = bucketed;
      row.sort_seconds = time_sort_rank(s, tb, seed, reps, sort_rank);
      if (sort_rank != s.rank) {
        std::fprintf(stderr, "FATAL: bucketed rank diverged from sort (%s/%s)\n",
                     row.distribution, row.tie_break);
        return 1;
      }
      rows.push_back(row);
      table.row({row.distribution, row.tie_break,
                 bench::Table::num(row.sort_seconds, 3),
                 bench::Table::num(row.bucketed_seconds, 3),
                 bench::Table::num(row.speedup(), 2)});
    }
  }
  write_json(out, n, rows);
  std::printf(
      "\nexpected shape: bucketed beats sort on frac and perm tie-breaks "
      "at every distribution (the keys are near-uniform by construction); "
      "lex rows are the no-rank floor on both sides.\n");
  return 0;
}
