#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "atlc/graph/edge_list.hpp"

namespace atlc::graph {

// Every edge-list format has exactly one reader here. load_edges() and the
// out-of-core ingest pipeline (atlc::ingest, DESIGN.md §11) both call them,
// so a file means the same graph on either path.

/// An owned std::FILE, closed on destruction.
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

/// Open `path`, or throw std::runtime_error("cannot open file: <path>").
[[nodiscard]] File open_or_throw(const std::string& path, const char* mode);

/// Bytes in an open file (an "atlc:" error if it cannot be measured);
/// leaves the position at the start.
[[nodiscard]] std::uint64_t file_size_or_throw(std::FILE* f,
                                               const std::string& path);

// ------------------------------------------------------------------ sniff ---

/// "ATLC": the first word of both binary containers.
constexpr std::uint32_t kFileMagic = 0x41544c43;
constexpr std::uint32_t kBinaryVersion = 1;    ///< v1 binary edge list
constexpr std::uint32_t kSnapshotVersion = 2;  ///< v2 snapshot (ingest)

/// What a file's first 8 bytes say it is. `Binary` is the ATLC magic with
/// any version but 2 (load_binary_edges validates the version); `Text` is
/// everything else, including a file that cannot be opened — the text
/// reader then reports the error.
enum class FileFormat : std::uint8_t { Text, Binary, Snapshot };
[[nodiscard]] FileFormat sniff_format(const std::string& path);

// ------------------------------------------------------------------- text ---

/// One window of whole text lines cut from the input file. `data` always
/// ends on a line boundary (trailing '\n'), except possibly for the final
/// chunk of a file whose last line has no newline.
struct TextChunk {
  std::uint64_t file_offset = 0;  ///< byte offset of data[0] in the file
  std::string data;
};

/// Streams a text file as fixed-size byte windows stitched to line
/// boundaries: each window is read with one bulk fread of ~chunk_bytes,
/// then trimmed back to the last newline; the partial tail line is carried
/// into the next window. Concatenating all chunks reproduces the file
/// byte-for-byte, so a per-line parser produces the same edge stream for
/// every chunk size.
///
/// A single line longer than `chunk_bytes` is handled by growing that one
/// window until its newline (or EOF) is found; `chunk_bytes` is a target,
/// not a hard cap.
class ChunkReader {
 public:
  ChunkReader(const std::string& path, std::size_t chunk_bytes);

  /// Fill `out` with the next window of whole lines. Returns false at EOF
  /// (out is left empty).
  bool next(TextChunk& out);

  [[nodiscard]] std::uint64_t bytes_read() const { return bytes_read_; }
  [[nodiscard]] std::uint64_t file_bytes() const { return file_bytes_; }

 private:
  File f_;
  std::size_t chunk_bytes_;
  std::string carry_;            ///< partial last line of the previous window
  std::uint64_t consumed_ = 0;   ///< file offset of the first byte of carry_
  std::uint64_t bytes_read_ = 0;
  std::uint64_t file_bytes_ = 0;
};

/// One raw id pair as it appears in the file, before compaction.
struct RawPair {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// The SNAP line grammar: lines starting with '#' or '%' and empty lines
/// are skipped, and a line contributes a pair iff two base-10 integers
/// parse from its front with sscanf("%llu %llu") rules (leading whitespace
/// and an optional sign are accepted, negatives wrap, overflow saturates,
/// trailing junk is ignored). Lines may be of any length. Thread-safe on
/// disjoint chunks. Returns the number of lines seen (parsed or skipped).
std::size_t parse_text_chunk(std::string_view text, std::vector<RawPair>& out);

/// The SNAP text edge reader: ChunkReader windows, parse_text_chunk on each
/// (up to `threads` windows at a time under OpenMP), then first-appearance
/// id compaction in file order, so the edge stream is the same for every
/// window size and thread count. More than `max_vertices` distinct ids
/// (always clamped to the uint32 VertexId space) throws an "atlc:" error
/// instead of wrapping the compacted ids.
class TextEdgeReader {
 public:
  TextEdgeReader(const std::string& path, std::size_t window_bytes,
                 std::uint64_t max_vertices = 0xffffffffull, int threads = 1);

  /// Append the compacted edges of the next `threads` windows to `out`, in
  /// file order. Returns false at EOF.
  bool next(std::vector<Edge>& out);

  [[nodiscard]] VertexId num_vertices() const {
    return static_cast<VertexId>(ids_.size());
  }
  [[nodiscard]] std::uint64_t lines() const { return lines_; }
  [[nodiscard]] std::uint64_t pairs() const { return pairs_parsed_; }
  [[nodiscard]] std::uint64_t bytes_read() const {
    return reader_.bytes_read();
  }
  [[nodiscard]] std::uint64_t file_bytes() const {
    return reader_.file_bytes();
  }

 private:
  VertexId intern(std::uint64_t raw);

  std::string path_;
  ChunkReader reader_;
  std::uint64_t id_cap_;
  std::unordered_map<std::uint64_t, VertexId> ids_;
  std::vector<TextChunk> chunks_;
  std::vector<std::vector<RawPair>> pairs_;
  std::vector<std::size_t> chunk_lines_;
  std::uint64_t lines_ = 0;
  std::uint64_t pairs_parsed_ = 0;
};

/// Load a SNAP text edge list (the paper's datasets: Orkut, LiveJournal,
/// ...) through TextEdgeReader on one thread. Undirected input is
/// symmetrized.
[[nodiscard]] EdgeList load_text_edges(
    const std::string& path, Directedness directedness,
    std::uint64_t max_vertices = 0xffffffffull);

/// Write the text edge-list format.
void save_text_edges(const EdgeList& edges, const std::string& path);

// ----------------------------------------------------------------- binary ---

/// Binary format v1: magic, version, directedness, n, m, then m (u,v) pairs
/// of uint32. Roughly 6x faster to load than text; used to snapshot
/// generated proxies between bench runs (see `atlc_run --convert`).
///
/// The reader validates the container before trusting it: magic and
/// version must match, the declared edge count must agree exactly with the
/// file size, and every endpoint must be < n (checked block by block as the
/// payload streams). Violations throw std::runtime_error with an
/// "atlc:"-prefixed message naming the failure and the path.
class BinaryEdgeReader {
 public:
  explicit BinaryEdgeReader(const std::string& path);

  [[nodiscard]] Directedness directedness() const { return dir_; }
  [[nodiscard]] VertexId num_vertices() const { return n_; }
  [[nodiscard]] std::uint64_t num_edges() const { return m_; }
  [[nodiscard]] std::uint64_t file_bytes() const { return file_bytes_; }

  /// Append the next validated block of the payload to `out`. Returns
  /// false once the payload is exhausted.
  bool next(std::vector<Edge>& out);

 private:
  std::string path_;
  File f_;
  Directedness dir_ = Directedness::Undirected;
  VertexId n_ = 0;
  std::uint64_t m_ = 0;
  std::uint64_t remaining_ = 0;
  std::uint64_t file_bytes_ = 0;
};

/// All of a v1 file, through BinaryEdgeReader.
[[nodiscard]] EdgeList load_binary_edges(const std::string& path);
void save_binary_edges(const EdgeList& edges, const std::string& path);

/// Format-sniffing loader: the binary reader when sniff_format() finds the
/// ATLC magic, the text reader otherwise. `directedness` applies to text
/// input only (the binary header records its own).
[[nodiscard]] EdgeList load_edges(const std::string& path,
                                  Directedness directedness);

}  // namespace atlc::graph
