// Shared helpers for the table/figure harnesses: fixed-width table printing
// and the standard measurement loops (worst measured convergence factor over
// schedulers/seeds, rounds until a spread target, etc.).
//
// The measurement loops fan their (scheduler x seed x input-family) sweeps
// over harness::run_many, so every driver built on them is a multi-core run;
// aggregation is over the seed-ordered report vector, so results — and the
// JSON documents — are identical to the old serial loops.
//
// Every bench binary prints a self-contained, labeled table so that
// `for b in build/bench/*; do $b; done` regenerates the full evaluation.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/rate_meter.hpp"
#include "harness/harness.hpp"
#include "harness/run_many.hpp"

namespace apxa::bench {

/// Minimal fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], r[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& r) {
      std::printf("|");
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        const std::string& cell = c < r.size() ? r[c] : std::string{};
        std::printf(" %-*s |", static_cast<int>(width[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      std::printf("%s|", std::string(width[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& r : rows_) print_row(r);
  }

  [[nodiscard]] const std::vector<std::string>& headers() const { return headers_; }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const {
    return rows_;
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// True when `s` is a complete JSON number token ([-]digits[.digits][e...]),
/// so cells like "16", "0.433", "2.00e-01" can be emitted unquoted.
inline bool is_json_number(const std::string& s) {
  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t start = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i > start;
  };
  if (i < s.size() && s[i] == '-') ++i;
  const std::size_t int_start = i;
  if (!digits()) return false;
  // JSON forbids leading zeros in the integer part ("007" must be quoted).
  if (i - int_start > 1 && s[int_start] == '0') return false;
  if (i < s.size() && s[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == s.size();
}

/// Mirrors a driver's tables/series into a machine-readable JSON document.
///
/// Usage: construct from (argc, argv); when the user passed `--json <path>`
/// every section recorded via add_table()/begin_section()+add_row() is
/// written to that path by finish(), whose return value is the driver's exit
/// code.  Without the flag the sink is inert, so the human-readable stdout
/// tables stay the default interface.
///
/// Document shape (numeric-looking cells become JSON numbers):
///   {"bench": "t1", "sections": [
///     {"name": "...", "columns": [...], "rows": [{"col": value, ...}]}]}
class JsonSink {
 public:
  JsonSink(int argc, char** argv, std::string bench_id)
      : id_(std::move(bench_id)) {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        if (i + 1 < argc) {
          path_ = argv[++i];
        } else {
          // Usage error: fail before the (potentially multi-minute) sweep runs.
          std::fprintf(stderr, "error: --json requires a path argument\n");
          std::exit(2);
        }
      }
    }
  }

  void begin_section(std::string name, std::vector<std::string> columns) {
    sections_.push_back({std::move(name), std::move(columns), {}});
  }

  /// Appends to the section opened by the last begin_section().
  void add_row(std::vector<std::string> values) {
    if (!sections_.empty()) sections_.back().rows.push_back(std::move(values));
  }

  void add_table(std::string name, const Table& t) {
    sections_.push_back({std::move(name), t.headers(), t.rows()});
  }

  /// Writes the document (if --json was given); returns main()'s exit code.
  [[nodiscard]] int finish() const {
    if (path_.empty()) return 0;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing\n", path_.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": ");
    write_string(f, id_);
    std::fprintf(f, ",\n  \"sections\": [");
    for (std::size_t s = 0; s < sections_.size(); ++s) {
      const auto& sec = sections_[s];
      std::fprintf(f, "%s\n    {\n      \"name\": ", s == 0 ? "" : ",");
      write_string(f, sec.name);
      std::fprintf(f, ",\n      \"columns\": [");
      for (std::size_t c = 0; c < sec.columns.size(); ++c) {
        std::fprintf(f, "%s", c == 0 ? "" : ", ");
        write_string(f, sec.columns[c]);
      }
      std::fprintf(f, "],\n      \"rows\": [");
      for (std::size_t r = 0; r < sec.rows.size(); ++r) {
        std::fprintf(f, "%s\n        {", r == 0 ? "" : ",");
        const auto& row = sec.rows[r];
        for (std::size_t c = 0; c < row.size() && c < sec.columns.size(); ++c) {
          std::fprintf(f, "%s", c == 0 ? "" : ", ");
          write_string(f, sec.columns[c]);
          std::fprintf(f, ": ");
          write_value(f, row[c]);
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "%s]\n    }", sec.rows.empty() ? "" : "\n      ");
    }
    std::fprintf(f, "%s]\n}\n", sections_.empty() ? "" : "\n  ");
    const bool ok = std::fclose(f) == 0;
    return ok ? 0 : 1;
  }

 private:
  struct Section {
    std::string name;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
  };

  static void write_string(std::FILE* f, const std::string& s) {
    std::fputc('"', f);
    for (const char ch : s) {
      switch (ch) {
        case '"': std::fputs("\\\"", f); break;
        case '\\': std::fputs("\\\\", f); break;
        case '\n': std::fputs("\\n", f); break;
        case '\t': std::fputs("\\t", f); break;
        default:
          if (static_cast<unsigned char>(ch) < 0x20) {
            std::fprintf(f, "\\u%04x", ch);
          } else {
            std::fputc(ch, f);
          }
      }
    }
    std::fputc('"', f);
  }

  static void write_value(std::FILE* f, const std::string& s) {
    if (is_json_number(s)) {
      std::fputs(s.c_str(), f);
    } else {
      write_string(f, s);
    }
  }

  std::string id_;
  std::string path_;
  std::vector<Section> sections_;
};

inline std::string fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string fmt_sci(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", precision, v);
  return buf;
}

inline std::string fmt_u(std::uint64_t v) { return std::to_string(v); }

/// ">horizon" marker for never-converged cells.  snprintf instead of
/// `">" + std::to_string(v)`: GCC 12's -Wrestrict false-positives on
/// libstdc++ operator+ temporaries at -O3, which -Werror builds reject.
inline std::string fmt_over(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), ">%llu", static_cast<unsigned long long>(v));
  return buf;
}

/// Worst (minimum) sustained and per-round factors for a live run of the
/// given protocol over the given schedulers and seeds, on binary-split
/// inputs (the extremal family).
struct MeasuredRate {
  double sustained_min = 0.0;
  double per_round_min = 0.0;
  bool measurable = false;
};

/// The (scheduler x seed) live-run config grid the rate/round measurements
/// sweep, in scheduler-major seed order.
inline std::vector<harness::RunConfig> sweep_grid(
    harness::RunConfig base, Round horizon, const std::vector<harness::SchedKind>& scheds,
    std::uint32_t seeds) {
  base.mode = core::TerminationMode::kLive;
  base.fixed_rounds = horizon;
  std::vector<harness::RunConfig> grid;
  grid.reserve(scheds.size() * seeds);
  for (const auto sched : scheds) {
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      harness::RunConfig cfg = base;
      cfg.sched = sched;
      cfg.seed = seed;
      grid.push_back(std::move(cfg));
    }
  }
  return grid;
}

inline MeasuredRate measure_worst_rate(harness::RunConfig base, Round horizon,
                                       const std::vector<harness::SchedKind>& scheds,
                                       std::uint32_t seeds) {
  std::vector<analysis::RateSummary> all;
  for (const auto& rep :
       harness::run_many(sweep_grid(std::move(base), horizon, scheds, seeds))) {
    all.push_back(analysis::summarize_rates(rep.spread_by_round));
  }
  const auto w = analysis::worst_of(all);
  return MeasuredRate{w.sustained, w.per_round_min, w.measurable};
}

/// Input families the adversary chooses from: every rule has a different
/// worst case (mean suffers at the n/2 split, midpoint/select rules near the
/// edges, stride-based rules sometimes on the ramp).
inline std::vector<std::vector<double>> adversarial_input_families(
    SystemParams p, double lo, double hi) {
  std::vector<std::vector<double>> fams;
  for (std::uint32_t hi_count :
       {1u, std::max(1u, p.t), p.n / 2, p.n - p.t - 1, p.n - 1}) {
    if (hi_count == 0 || hi_count >= p.n) continue;
    fams.push_back(harness::split_inputs(p.n, hi_count, lo, hi));
  }
  fams.push_back(harness::linear_inputs(p.n, lo, hi));
  return fams;
}

/// Worst measured rates over the adversarial input families above, batched:
/// every base's (family x scheduler x seed) grid goes through ONE run_many
/// call, so a driver's whole row set sweeps in parallel.  Runs that converge
/// instantly on some family are fine as long as one family yields a
/// measurable rate.  Aggregation stays per base (and per family within it),
/// so out[b] is identical to measuring bases[b] alone.
inline std::vector<MeasuredRate> measure_worst_rates_over_inputs(
    const std::vector<harness::RunConfig>& bases, Round horizon,
    const std::vector<harness::SchedKind>& scheds, std::uint32_t seeds) {
  struct Owner {
    std::size_t base, family;
  };
  std::vector<harness::RunConfig> grid;
  std::vector<Owner> owner;  // grid index -> (base, family)
  std::vector<std::size_t> family_count(bases.size());
  for (std::size_t b = 0; b < bases.size(); ++b) {
    auto families = adversarial_input_families(bases[b].params, 0.0, 1.0);
    family_count[b] = families.size();
    for (std::size_t f = 0; f < families.size(); ++f) {
      harness::RunConfig cfg = bases[b];
      cfg.inputs = families[f];
      for (auto& g : sweep_grid(std::move(cfg), horizon, scheds, seeds)) {
        grid.push_back(std::move(g));
        owner.push_back({b, f});
      }
    }
  }
  const auto reports = harness::run_many(grid);

  std::vector<std::vector<std::vector<analysis::RateSummary>>> per(bases.size());
  for (std::size_t b = 0; b < bases.size(); ++b) per[b].resize(family_count[b]);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    per[owner[i].base][owner[i].family].push_back(
        analysis::summarize_rates(reports[i].spread_by_round));
  }

  std::vector<MeasuredRate> out(bases.size());
  for (std::size_t b = 0; b < bases.size(); ++b) {
    MeasuredRate worst;
    for (const auto& summaries : per[b]) {
      const auto w = analysis::worst_of(summaries);
      const MeasuredRate m{w.sustained, w.per_round_min, w.measurable};
      if (!m.measurable) continue;
      if (!worst.measurable || m.sustained_min < worst.sustained_min) worst = m;
    }
    out[b] = worst;
  }
  return out;
}

/// Single-config convenience over the batched version.
inline MeasuredRate measure_worst_rate_over_inputs(
    harness::RunConfig base, Round horizon, const std::vector<harness::SchedKind>& scheds,
    std::uint32_t seeds) {
  return measure_worst_rates_over_inputs({std::move(base)}, horizon, scheds,
                                         seeds)[0];
}

/// Rounds until the observed correct-party spread first drops to <= target,
/// worst case over the given schedulers and seeds.  Returns horizon+1 when a
/// run never got there.
inline Round measure_rounds_to_spread(harness::RunConfig base, Round horizon,
                                      double target,
                                      const std::vector<harness::SchedKind>& scheds,
                                      std::uint32_t seeds) {
  Round worst = 0;
  for (const auto& rep :
       harness::run_many(sweep_grid(std::move(base), horizon, scheds, seeds))) {
    Round got = horizon + 1;
    for (std::size_t r = 0; r < rep.spread_by_round.size(); ++r) {
      if (rep.spread_by_round[r] <= target) {
        got = static_cast<Round>(r);
        break;
      }
    }
    worst = std::max(worst, got);
  }
  return worst;
}

}  // namespace apxa::bench
