#include "core/decomposition_io.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace mpx::io {
namespace {

/// The rest of `in` as one buffer: both readers parse bytes in one pass
/// instead of extracting each line through an istringstream.
std::string slurp(std::istream& in) {
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return std::move(bytes).str();
}

/// Line cursor over a buffer (a final line needs no terminating newline).
/// Content lines are the non-empty ones that do not start with '#'.
class ContentLines {
 public:
  explicit ContentLines(std::string_view bytes) : rest_(bytes) {}

  /// The next line, comments included; false at the end.
  bool next_line(std::string_view& line) {
    if (rest_.empty()) return false;
    const std::size_t eol = rest_.find('\n');
    line = rest_.substr(0, eol);
    rest_.remove_prefix(eol == std::string_view::npos ? rest_.size()
                                                       : eol + 1);
    return true;
  }

  /// The next content line; false at the end.
  bool next(std::string_view& line) {
    while (next_line(line)) {
      if (!line.empty() && line[0] != '#') return true;
    }
    return false;
  }

 private:
  std::string_view rest_;
};

/// One unsigned decimal field at `pos` (after blanks, as iostream
/// extraction skips them), advancing `pos` past it; trailing content is
/// left for the caller. False when no digits parse or the value
/// overflows 64 bits — a sign is never accepted.
bool next_field(std::string_view line, std::size_t& pos, std::uint64_t& out) {
  while (pos < line.size() &&
         (line[pos] == ' ' || line[pos] == '\t' || line[pos] == '\r' ||
          line[pos] == '\v' || line[pos] == '\f')) {
    ++pos;
  }
  const char* end = line.data() + line.size();
  const auto [next, ec] = std::from_chars(line.data() + pos, end, out);
  if (ec != std::errc()) return false;
  pos = static_cast<std::size_t>(next - line.data());
  return true;
}

[[noreturn]] void malformed(const std::string& what) {
  throw std::runtime_error("mpx::io: malformed decomposition: " + what);
}

/// Shortest decimal form that round-trips a double exactly.
std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  double parsed = 0.0;
  if (std::sscanf(buf, "%lf", &parsed) == 1 && parsed == value) {
    for (int precision = 1; precision < 17; ++precision) {
      char shorter[64];
      std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
      if (std::sscanf(shorter, "%lf", &parsed) == 1 && parsed == value) {
        return shorter;
      }
    }
  }
  return buf;
}

/// Parse the decomposition body given its "n k" header line, reading the
/// centers and assignment rows from `lines`; shared by both readers.
Decomposition read_body(std::string_view header_line, ContentLines& lines) {
  std::uint64_t n = 0;
  std::uint64_t k = 0;
  std::size_t pos = 0;
  if (!next_field(header_line, pos, n) || !next_field(header_line, pos, k)) {
    malformed("bad header: " + std::string(header_line));
  }
  if (k > n) malformed("more clusters than vertices");

  std::string_view line;
  std::vector<vertex_t> centers(k);
  for (std::uint64_t c = 0; c < k; ++c) {
    if (!lines.next(line)) malformed("unexpected EOF in centers");
    std::uint64_t center = 0;
    pos = 0;
    if (!next_field(line, pos, center) || center >= n) {
      malformed("bad center: " + std::string(line));
    }
    centers[c] = static_cast<vertex_t>(center);
  }

  std::vector<vertex_t> owner(n);
  std::vector<std::uint32_t> dist(n);
  for (std::uint64_t v = 0; v < n; ++v) {
    if (!lines.next(line)) malformed("unexpected EOF in rows");
    std::uint64_t cluster = 0;
    std::uint64_t d = 0;
    pos = 0;
    if (!next_field(line, pos, cluster) || !next_field(line, pos, d) ||
        cluster >= k || d > std::numeric_limits<std::uint32_t>::max()) {
      malformed("bad assignment row: " + std::string(line));
    }
    owner[v] = centers[cluster];
    dist[v] = static_cast<std::uint32_t>(d);
  }
  return Decomposition(owner, dist);
}

/// One "#! <key> <value>" telemetry line. Unknown keys and unparsable
/// values are corruption, not noise: a block we cannot faithfully restore
/// must not be silently dropped. Integer values are parsed from the raw
/// token (digits only, explicit range check) because istream extraction
/// into unsigned types silently wraps negatives and the cast to a narrower
/// type would silently truncate.
void parse_telemetry_line(const std::string& key, std::istringstream& row,
                          RunTelemetry& t) {
  const auto read_uint = [&](std::uint64_t max_value) -> std::uint64_t {
    std::string token;
    if (!(row >> token) || token.empty()) {
      malformed("bad telemetry value for " + key);
    }
    std::uint64_t value = 0;
    for (const char c : token) {
      if (c < '0' || c > '9') malformed("bad telemetry value for " + key);
      const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
      if (value > (max_value - digit) / 10) {
        malformed("telemetry value out of range for " + key);
      }
      value = value * 10 + digit;
    }
    return value;
  };
  const auto read_u32 = [&](std::uint32_t& out) {
    out = static_cast<std::uint32_t>(
        read_uint(std::numeric_limits<std::uint32_t>::max()));
  };
  const auto read_double = [&](double& out) {
    if (!(row >> out)) malformed("bad telemetry value for " + key);
  };
  if (key == "algorithm") {
    if (!(row >> t.algorithm)) malformed("bad telemetry value for " + key);
  } else if (key == "engine") {
    if (!(row >> t.engine)) malformed("bad telemetry value for " + key);
  } else if (key == "threads") {
    t.threads = static_cast<int>(
        read_uint(static_cast<std::uint64_t>(std::numeric_limits<int>::max())));
  } else if (key == "rounds") {
    read_u32(t.rounds);
  } else if (key == "pull_rounds") {
    read_u32(t.pull_rounds);
  } else if (key == "phases") {
    read_u32(t.phases);
  } else if (key == "arcs_scanned") {
    t.arcs_scanned = read_uint(std::numeric_limits<edge_t>::max());
  } else if (key == "cache_hits") {
    t.cache_hits = read_uint(std::numeric_limits<std::uint64_t>::max());
  } else if (key == "cache_misses") {
    t.cache_misses = read_uint(std::numeric_limits<std::uint64_t>::max());
  } else if (key == "cache_evictions") {
    t.cache_evictions = read_uint(std::numeric_limits<std::uint64_t>::max());
  } else if (key == "shift_seconds") {
    read_double(t.shift_seconds);
  } else if (key == "shift_draw_seconds") {
    read_double(t.shift_draw_seconds);
  } else if (key == "shift_rank_seconds") {
    read_double(t.shift_rank_seconds);
  } else if (key == "search_seconds") {
    read_double(t.search_seconds);
  } else if (key == "assemble_seconds") {
    read_double(t.assemble_seconds);
  } else if (key == "total_seconds") {
    read_double(t.total_seconds);
  } else {
    malformed("unknown telemetry key: " + key);
  }
  std::string extra;
  if (row >> extra) malformed("trailing content after telemetry " + key);
}

/// The header line + centers + assignment rows — the one copy of the body
/// format both writer overloads share.
void write_body(std::ostream& out, const Decomposition& dec) {
  out << dec.num_vertices() << ' ' << dec.num_clusters() << '\n';
  for (cluster_t c = 0; c < dec.num_clusters(); ++c) {
    out << dec.center(c) << '\n';
  }
  for (vertex_t v = 0; v < dec.num_vertices(); ++v) {
    out << dec.cluster_of(v) << ' ' << dec.dist_to_center(v) << '\n';
  }
}

}  // namespace

void write_decomposition(std::ostream& out, const Decomposition& dec) {
  out << "# mpx decomposition\n";
  write_body(out, dec);
}

void write_decomposition(std::ostream& out, const Decomposition& dec,
                         const RunTelemetry& telemetry) {
  out << "# mpx decomposition\n";
  out << "#! telemetry v1\n";
  out << "#! algorithm " << telemetry.algorithm << '\n';
  out << "#! engine " << telemetry.engine << '\n';
  out << "#! threads " << telemetry.threads << '\n';
  out << "#! rounds " << telemetry.rounds << '\n';
  out << "#! pull_rounds " << telemetry.pull_rounds << '\n';
  out << "#! phases " << telemetry.phases << '\n';
  out << "#! arcs_scanned " << telemetry.arcs_scanned << '\n';
  // Block-cache counters only appear for paged (out-of-core) runs, so
  // telemetry blocks written by in-memory runs — including the golden
  // fixtures — keep their historical bytes.
  if (telemetry.cache_hits != 0 || telemetry.cache_misses != 0 ||
      telemetry.cache_evictions != 0) {
    out << "#! cache_hits " << telemetry.cache_hits << '\n';
    out << "#! cache_misses " << telemetry.cache_misses << '\n';
    out << "#! cache_evictions " << telemetry.cache_evictions << '\n';
  }
  out << "#! shift_seconds " << format_double(telemetry.shift_seconds) << '\n';
  out << "#! shift_draw_seconds "
      << format_double(telemetry.shift_draw_seconds) << '\n';
  out << "#! shift_rank_seconds "
      << format_double(telemetry.shift_rank_seconds) << '\n';
  out << "#! search_seconds " << format_double(telemetry.search_seconds)
      << '\n';
  out << "#! assemble_seconds " << format_double(telemetry.assemble_seconds)
      << '\n';
  out << "#! total_seconds " << format_double(telemetry.total_seconds) << '\n';
  out << "#! end telemetry\n";
  write_body(out, dec);
}

Decomposition read_decomposition(std::istream& in) {
  const std::string bytes = slurp(in);
  ContentLines lines(bytes);
  std::string_view header;
  if (!lines.next(header)) malformed("missing header");
  return read_body(header, lines);
}

LoadedDecomposition read_decomposition_full(std::istream& in) {
  LoadedDecomposition out;
  const std::string bytes = slurp(in);
  ContentLines lines(bytes);
  std::string_view line;
  bool in_block = false;
  bool have_header = false;
  std::string_view header_line;
  while (lines.next_line(line)) {
    if (line.starts_with("#!")) {
      std::istringstream row{std::string(line.substr(2))};
      std::string key;
      if (!(row >> key)) malformed("empty #! line");
      if (!in_block) {
        std::string version;
        if (key != "telemetry" || !(row >> version)) {
          malformed("#! line outside a telemetry block: " + std::string(line));
        }
        if (version != "v1") {
          malformed("unsupported telemetry version: " + version);
        }
        if (out.has_telemetry) malformed("duplicate telemetry block");
        in_block = true;
        out.has_telemetry = true;
        continue;
      }
      if (key == "end") {
        std::string what;
        if (!(row >> what) || what != "telemetry") {
          malformed("bad telemetry terminator: " + std::string(line));
        }
        in_block = false;
        continue;
      }
      parse_telemetry_line(key, row, out.telemetry);
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    header_line = line;
    have_header = true;
    break;
  }
  if (in_block) malformed("unterminated telemetry block");
  if (!have_header) malformed("missing header");
  out.decomposition = read_body(header_line, lines);
  return out;
}

void save_decomposition(const std::string& file_path,
                        const Decomposition& dec) {
  std::ofstream out(file_path);
  if (!out) throw std::runtime_error("mpx::io: cannot open " + file_path);
  write_decomposition(out, dec);
}

void save_decomposition(const std::string& file_path, const Decomposition& dec,
                        const RunTelemetry& telemetry) {
  std::ofstream out(file_path);
  if (!out) throw std::runtime_error("mpx::io: cannot open " + file_path);
  write_decomposition(out, dec, telemetry);
}

Decomposition load_decomposition(const std::string& file_path) {
  std::ifstream in(file_path);
  if (!in) throw std::runtime_error("mpx::io: cannot open " + file_path);
  return read_decomposition(in);
}

LoadedDecomposition load_decomposition_full(const std::string& file_path) {
  std::ifstream in(file_path);
  if (!in) throw std::runtime_error("mpx::io: cannot open " + file_path);
  return read_decomposition_full(in);
}

}  // namespace mpx::io
