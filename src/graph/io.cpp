#include "atlc/graph/io.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#if !defined(ATLC_NO_OPENMP) && defined(_OPENMP)
#define ATLC_IO_OMP 1
#endif

namespace atlc::graph {

namespace {

/// Bytes per text window in load_text_edges: small enough that the window
/// and its parsed pairs stay well under the edge vector itself.
constexpr std::size_t kLoadWindowBytes = std::size_t{256} << 10;

/// Edges per block in BinaryEdgeReader::next.
constexpr std::uint64_t kBinaryBlockEdges = std::uint64_t{1} << 16;

constexpr std::uint64_t kBinaryHeaderBytes =
    4 * sizeof(std::uint32_t) + sizeof(std::uint64_t);

/// Size hint for a container that grows with the input, capped so a huge
/// file cannot force a huge speculative allocation.
std::size_t reserve_hint(std::uint64_t bytes, std::uint64_t bytes_per_item) {
  return static_cast<std::size_t>(std::min<std::uint64_t>(
      bytes / bytes_per_item + 16, std::uint64_t{1} << 26));
}

/// strtoull-compatible base-10 parse of [p, end): skips leading whitespace,
/// accepts an optional sign (a negative value wraps, as strtoull defines),
/// saturates to ULLONG_MAX on overflow whatever the sign. Returns false
/// when no digits are found; `p` is advanced past the consumed prefix on
/// success.
bool parse_u64(const char*& p, const char* end, std::uint64_t& out) {
  while (p != end && (*p == ' ' || (*p >= '\t' && *p <= '\r'))) ++p;
  bool negative = false;
  if (p != end && (*p == '+' || *p == '-')) {
    negative = *p == '-';
    ++p;
  }
  if (p == end || *p < '0' || *p > '9') return false;
  std::uint64_t value = 0;
  bool overflow = false;
  for (; p != end && *p >= '0' && *p <= '9'; ++p) {
    const auto digit = static_cast<std::uint64_t>(*p - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) overflow = true;
    if (!overflow) value = value * 10 + digit;
  }
  if (overflow) value = ~std::uint64_t{0};
  out = negative && !overflow ? std::uint64_t{0} - value : value;
  return true;
}

}  // namespace

File open_or_throw(const std::string& path, const char* mode) {
  File f(std::fopen(path.c_str(), mode));
  if (!f) throw std::runtime_error("cannot open file: " + path);
  return f;
}

std::uint64_t file_size_or_throw(std::FILE* f, const std::string& path) {
  if (std::fseek(f, 0, SEEK_END) != 0)
    throw std::runtime_error("atlc: cannot seek: " + path);
  const long size = std::ftell(f);
  if (size < 0) throw std::runtime_error("atlc: cannot stat: " + path);
  std::rewind(f);
  return static_cast<std::uint64_t>(size);
}

FileFormat sniff_format(const std::string& path) {
  const File f(std::fopen(path.c_str(), "rb"));
  std::uint32_t word[2] = {};
  if (!f || std::fread(word, sizeof(word[0]), 2, f.get()) < 1 ||
      word[0] != kFileMagic)
    return FileFormat::Text;
  return word[1] == kSnapshotVersion ? FileFormat::Snapshot
                                     : FileFormat::Binary;
}

// ----------------------------------------------------------------- text ---

ChunkReader::ChunkReader(const std::string& path, std::size_t chunk_bytes)
    : f_(open_or_throw(path, "rb")),
      chunk_bytes_(chunk_bytes > 0 ? chunk_bytes : 1),
      file_bytes_(file_size_or_throw(f_.get(), path)) {}

bool ChunkReader::next(TextChunk& out) {
  out.file_offset = consumed_;
  out.data = std::move(carry_);
  carry_.clear();

  bool eof = false;
  while (!eof) {
    const std::size_t old = out.data.size();
    out.data.resize(old + chunk_bytes_);
    const std::size_t got =
        std::fread(out.data.data() + old, 1, chunk_bytes_, f_.get());
    out.data.resize(old + got);
    bytes_read_ += got;
    eof = got < chunk_bytes_;
    if (out.data.size() >= chunk_bytes_ || eof) {
      if (!eof) {
        // Trim back to the last line boundary; a window with no newline at
        // all is one oversized line — loop to grow it until its newline.
        const std::size_t nl = out.data.rfind('\n');
        if (nl == std::string::npos) continue;
        carry_.assign(out.data, nl + 1, std::string::npos);
        out.data.resize(nl + 1);
      }
      break;
    }
  }
  consumed_ += out.data.size();
  return !out.data.empty();
}

std::size_t parse_text_chunk(std::string_view text,
                             std::vector<RawPair>& out) {
  std::size_t lines = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++lines;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    const char* p = line.data();
    const char* const end = line.data() + line.size();
    RawPair pair;
    if (!parse_u64(p, end, pair.a) || !parse_u64(p, end, pair.b)) continue;
    out.push_back(pair);
  }
  return lines;
}

TextEdgeReader::TextEdgeReader(const std::string& path,
                               std::size_t window_bytes,
                               std::uint64_t max_vertices, int threads)
    : path_(path),
      reader_(path, window_bytes),
      id_cap_(std::min<std::uint64_t>(max_vertices, 0xffffffffull)),
      chunks_(static_cast<std::size_t>(std::max(threads, 1))),
      pairs_(chunks_.size()),
      chunk_lines_(chunks_.size()) {
  // Most ids repeat and a SNAP id rarely takes under ~12 bytes of its line;
  // sizing up front avoids rehash storms on large inputs.
  ids_.reserve(reserve_hint(reader_.file_bytes(), 24));
}

VertexId TextEdgeReader::intern(std::uint64_t raw) {
  const auto [it, inserted] =
      ids_.try_emplace(raw, static_cast<VertexId>(ids_.size()));
  if (inserted && ids_.size() > id_cap_)
    throw std::runtime_error("atlc: vertex id space overflow: more than " +
                             std::to_string(id_cap_) +
                             " distinct vertex ids in " + path_);
  return it->second;
}

bool TextEdgeReader::next(std::vector<Edge>& out) {
  std::size_t live = 0;
  while (live < chunks_.size() && reader_.next(chunks_[live])) ++live;
  if (live == 0) return false;
#ifdef ATLC_IO_OMP
#pragma omp parallel for num_threads(static_cast<int>(chunks_.size())) \
    schedule(dynamic, 1) if (live > 1)
#endif
  for (std::size_t c = 0; c < live; ++c) {
    pairs_[c].clear();
    chunk_lines_[c] = parse_text_chunk(chunks_[c].data, pairs_[c]);
  }
  // Interning stays sequential and in chunk order: first-appearance ids
  // depend on the order the pairs are seen.
  for (std::size_t c = 0; c < live; ++c) {
    lines_ += chunk_lines_[c];
    pairs_parsed_ += pairs_[c].size();
    for (const RawPair& p : pairs_[c]) {
      // Braced init evaluates left to right: intern(a) before intern(b).
      out.push_back(Edge{intern(p.a), intern(p.b)});
    }
  }
  return true;
}

EdgeList load_text_edges(const std::string& path, Directedness directedness,
                         std::uint64_t max_vertices) {
  TextEdgeReader reader(path, kLoadWindowBytes, max_vertices);
  std::vector<Edge> edges;
  edges.reserve(reserve_hint(reader.file_bytes(), 12));
  while (reader.next(edges)) {
  }
  EdgeList out(reader.num_vertices(), std::move(edges), directedness);
  if (directedness == Directedness::Undirected) out.symmetrize();
  return out;
}

void save_text_edges(const EdgeList& edges, const std::string& path) {
  const File f(open_or_throw(path, "w"));
  std::fprintf(f.get(), "# atlc edge list: %u vertices, %zu edges\n",
               edges.num_vertices(), edges.num_edges());
  for (const Edge& e : edges.edges())
    std::fprintf(f.get(), "%u %u\n", e.u, e.v);
}

// --------------------------------------------------------------- binary ---

void save_binary_edges(const EdgeList& edges, const std::string& path) {
  const File f(open_or_throw(path, "wb"));
  const std::uint32_t header[4] = {
      kFileMagic, kBinaryVersion,
      edges.directedness() == Directedness::Directed ? 1u : 0u,
      edges.num_vertices()};
  const auto m = static_cast<std::uint64_t>(edges.num_edges());
  if (std::fwrite(header, sizeof(header), 1, f.get()) != 1 ||
      std::fwrite(&m, sizeof(m), 1, f.get()) != 1)
    throw std::runtime_error("short write: " + path);
  if (m > 0 &&
      std::fwrite(edges.edges().data(), sizeof(Edge), m, f.get()) != m)
    throw std::runtime_error("short write: " + path);
}

BinaryEdgeReader::BinaryEdgeReader(const std::string& path)
    : path_(path), f_(open_or_throw(path, "rb")) {
  // Measure before parsing: every check compares the header's claims
  // against what is actually on disk.
  file_bytes_ = file_size_or_throw(f_.get(), path_);
  std::uint32_t header[4];
  if (file_bytes_ < kBinaryHeaderBytes ||
      std::fread(header, sizeof(header), 1, f_.get()) != 1 ||
      std::fread(&m_, sizeof(m_), 1, f_.get()) != 1)
    throw std::runtime_error("atlc: truncated header (file smaller than the "
                             "binary edge-list header): " + path_);
  if (header[0] != kFileMagic)
    throw std::runtime_error("atlc: bad magic (not an ATLC binary edge "
                             "list): " + path_);
  if (header[1] != kBinaryVersion) {
    if (header[1] == kSnapshotVersion)
      throw std::runtime_error(
          "atlc: this is a v2 partition-sliced snapshot, not a v1 binary "
          "edge list — open it with ingest::SnapshotReader (atlc_run "
          "--input): " + path_);
    throw std::runtime_error(
        "atlc: unsupported binary edge-list version " +
        std::to_string(header[1]) + " (expected " +
        std::to_string(kBinaryVersion) + "): " + path_);
  }
  if (header[2] > 1)
    throw std::runtime_error("atlc: corrupt directedness flag: " + path_);

  // The declared count must match the payload EXACTLY: a short file means a
  // truncated copy (loading it would silently slice the edge array); extra
  // trailing bytes mean the file is not what the header claims. Compared by
  // division, so no declared count can wrap the byte arithmetic.
  const std::uint64_t payload = file_bytes_ - kBinaryHeaderBytes;
  if (payload % sizeof(Edge) != 0 || payload / sizeof(Edge) != m_)
    throw std::runtime_error(
        "atlc: declared edge count " + std::to_string(m_) +
        " does not match the " + std::to_string(payload) +
        "-byte payload (truncated or corrupt): " + path_);

  dir_ = header[2] ? Directedness::Directed : Directedness::Undirected;
  n_ = header[3];
  remaining_ = m_;
}

bool BinaryEdgeReader::next(std::vector<Edge>& out) {
  if (remaining_ == 0) return false;
  const auto want = static_cast<std::size_t>(
      std::min<std::uint64_t>(remaining_, kBinaryBlockEdges));
  const std::size_t old = out.size();
  out.resize(old + want);
  if (std::fread(out.data() + old, sizeof(Edge), want, f_.get()) != want)
    throw std::runtime_error("atlc: short read: " + path_);
  for (std::size_t i = old; i < out.size(); ++i)
    if (out[i].u >= n_ || out[i].v >= n_)
      throw std::runtime_error(
          "atlc: edge endpoint out of range (vertex >= " +
          std::to_string(n_) + "; corrupt payload): " + path_);
  remaining_ -= want;
  return true;
}

EdgeList load_binary_edges(const std::string& path) {
  BinaryEdgeReader reader(path);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(reader.num_edges()));
  while (reader.next(edges)) {
  }
  return EdgeList(reader.num_vertices(), std::move(edges),
                  reader.directedness());
}

EdgeList load_edges(const std::string& path, Directedness directedness) {
  if (sniff_format(path) == FileFormat::Text)
    return load_text_edges(path, directedness);
  return load_binary_edges(path);
}

}  // namespace atlc::graph
