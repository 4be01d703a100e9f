#include "atlc/graph/io.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace atlc::graph {

namespace {

constexpr std::uint32_t kMagic = 0x41544c43;  // "ATLC"
constexpr std::uint32_t kVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

File open_or_throw(const std::string& path, const char* mode) {
  File f(std::fopen(path.c_str(), mode));
  if (!f) throw std::runtime_error("cannot open file: " + path);
  return f;
}

}  // namespace

EdgeList load_text_edges(const std::string& path, Directedness directedness,
                         std::uint64_t max_vertices) {
  File f = open_or_throw(path, "r");

  // Size the containers from the file size up front: a SNAP line is ~12-24
  // bytes and most ids repeat, so these bounds avoid the rehash/realloc
  // storms that dominated load time on multi-GB inputs (capped so a huge
  // file cannot force a huge speculative allocation).
  if (std::fseek(f.get(), 0, SEEK_END) != 0)
    throw std::runtime_error("atlc: cannot seek: " + path);
  const long file_size = std::ftell(f.get());
  if (file_size < 0) throw std::runtime_error("atlc: cannot stat: " + path);
  std::rewind(f.get());
  const auto bytes = static_cast<std::uint64_t>(file_size);

  std::unordered_map<std::uint64_t, VertexId> remap;
  remap.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(bytes / 24 + 16,
                                                       std::uint64_t{1} << 26)));
  std::vector<Edge> edges;
  edges.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(bytes / 12 + 16,
                                                       std::uint64_t{1} << 26)));

  // Compacted ids must fit VertexId (uint32); `max_vertices` tightens the
  // guard further so tests can exercise it without 4G-vertex inputs.
  const std::uint64_t id_cap = std::min<std::uint64_t>(max_vertices,
                                                       0xffffffffull);
  char line[256];
  while (std::fgets(line, sizeof(line), f.get())) {
    if (line[0] == '#' || line[0] == '%' || line[0] == '\n') continue;
    std::uint64_t a = 0, b = 0;
    if (std::sscanf(line, "%llu %llu", (unsigned long long*)&a,
                    (unsigned long long*)&b) != 2)
      continue;
    auto intern = [&](std::uint64_t raw) {
      auto [it, inserted] =
          remap.try_emplace(raw, static_cast<VertexId>(remap.size()));
      if (inserted && remap.size() > id_cap)
        throw std::runtime_error(
            "atlc: vertex id space overflow: more than " +
            std::to_string(id_cap) + " distinct vertex ids in " + path);
      return it->second;
    };
    edges.push_back({intern(a), intern(b)});
  }
  EdgeList out(static_cast<VertexId>(remap.size()), std::move(edges),
               directedness);
  if (directedness == Directedness::Undirected) out.symmetrize();
  return out;
}

void save_text_edges(const EdgeList& edges, const std::string& path) {
  File f = open_or_throw(path, "w");
  std::fprintf(f.get(), "# atlc edge list: %u vertices, %zu edges\n",
               edges.num_vertices(), edges.num_edges());
  for (const Edge& e : edges.edges())
    std::fprintf(f.get(), "%u %u\n", e.u, e.v);
}

void save_binary_edges(const EdgeList& edges, const std::string& path) {
  File f = open_or_throw(path, "wb");
  const std::uint32_t header[4] = {
      kMagic, kVersion,
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

EdgeList load_binary_edges(const std::string& path) {
  File f = open_or_throw(path, "rb");

  // Measure before parsing: every downstream check compares the header's
  // claims against what is actually on disk.
  if (std::fseek(f.get(), 0, SEEK_END) != 0)
    throw std::runtime_error("atlc: cannot seek: " + path);
  const long file_size = std::ftell(f.get());
  if (file_size < 0) throw std::runtime_error("atlc: cannot stat: " + path);
  std::rewind(f.get());

  constexpr std::uint64_t kHeaderBytes = 4 * sizeof(std::uint32_t) +
                                         sizeof(std::uint64_t);
  std::uint32_t header[4];
  std::uint64_t m = 0;
  if (static_cast<std::uint64_t>(file_size) < kHeaderBytes ||
      std::fread(header, sizeof(header), 1, f.get()) != 1 ||
      std::fread(&m, sizeof(m), 1, f.get()) != 1)
    throw std::runtime_error("atlc: truncated header (file smaller than the "
                             "binary edge-list header): " + path);
  if (header[0] != kMagic)
    throw std::runtime_error("atlc: bad magic (not an ATLC binary edge "
                             "list): " + path);
  if (header[1] != kVersion) {
    if (header[1] == 2)
      throw std::runtime_error(
          "atlc: this is a v2 partition-sliced snapshot, not a v1 binary "
          "edge list — open it with ingest::SnapshotReader (atlc_run "
          "--input): " + path);
    throw std::runtime_error(
        "atlc: unsupported binary edge-list version " +
        std::to_string(header[1]) + " (expected " + std::to_string(kVersion) +
        "): " + path);
  }
  if (header[2] > 1)
    throw std::runtime_error("atlc: corrupt directedness flag: " + path);

  // The declared count must match the payload EXACTLY: a short file means a
  // truncated copy (loading it would silently slice the edge array); extra
  // trailing bytes mean the file is not what the header claims.
  const std::uint64_t expected = kHeaderBytes + m * sizeof(Edge);
  if (static_cast<std::uint64_t>(file_size) != expected)
    throw std::runtime_error(
        "atlc: declared edge count " + std::to_string(m) + " wants " +
        std::to_string(expected) + " bytes but file has " +
        std::to_string(file_size) + " (truncated or corrupt): " + path);

  const VertexId n = header[3];
  std::vector<Edge> edges(m);
  if (m > 0 && std::fread(edges.data(), sizeof(Edge), m, f.get()) != m)
    throw std::runtime_error("atlc: short read: " + path);
  for (const Edge& e : edges)
    if (e.u >= n || e.v >= n)
      throw std::runtime_error(
          "atlc: edge endpoint out of range (vertex >= " + std::to_string(n) +
          "; corrupt payload): " + path);
  return EdgeList(n, std::move(edges),
                  header[2] ? Directedness::Directed
                            : Directedness::Undirected);
}

EdgeList load_edges(const std::string& path, Directedness directedness) {
  {
    File f = open_or_throw(path, "rb");
    std::uint32_t magic = 0;
    const bool is_binary =
        std::fread(&magic, sizeof(magic), 1, f.get()) == 1 && magic == kMagic;
    if (is_binary) {
      // Reopen through the validating loader (it re-reads the header).
      f.reset();
      return load_binary_edges(path);
    }
  }
  return load_text_edges(path, directedness);
}

}  // namespace atlc::graph
