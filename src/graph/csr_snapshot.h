#ifndef EMIGRE_GRAPH_CSR_SNAPSHOT_H_
#define EMIGRE_GRAPH_CSR_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "graph/csr.h"
#include "graph/hin_graph.h"
#include "graph/type_registry.h"
#include "graph/types.h"
#include "util/result.h"
#include "util/status.h"

namespace emigre::graph {

/// \brief The `emigre.csr.v1` mmap-able CSR snapshot (docs/data_format.md).
///
/// A snapshot serializes a built `CsrGraph` — type/weight/offset/adjacency
/// columns plus the type-name tables and optional node labels — into one
/// page-aligned blob. Loading maps the file read-only and aliases the
/// column arrays in place (`CsrGraph::Alias`), so a cold start touches the
/// header and a handful of pages instead of re-parsing CSVs; the kernel
/// pages the adjacency in on demand. Hosts without `mmap` (or callers that
/// ask for it) fall back to one buffered `read` of the file.
///
/// The layout is little-endian and fixed-width: a 56-byte header, a table
/// of 32-byte section descriptors, then the payloads, each aligned to
/// `kSnapshotAlign`. Sections 1-10 are exactly the `CsrGraph::Columns`
/// arrays; 11/12 are length-prefixed type-name pools; 13/14 (optional)
/// are the label offset column and label byte pool.

inline constexpr char kSnapshotMagic[8] = {'E', 'M', 'G', 'R',
                                           'C', 'S', 'R', '1'};
inline constexpr uint32_t kSnapshotVersion = 1;
inline constexpr uint32_t kSnapshotEndianTag = 0x01020304u;
/// Payload alignment: one page, so every column is naturally aligned for
/// its element type and mmap'd arrays can be dereferenced directly.
inline constexpr uint64_t kSnapshotAlign = 4096;

/// Stable section identifiers — append only.
enum class SnapshotSectionId : uint32_t {
  kNodeType = 1,       ///< NodeTypeId[num_nodes]
  kOutWeight = 2,      ///< double[num_nodes]
  kOutOffsets = 3,     ///< uint64_t[num_nodes + 1]
  kOutDst = 4,         ///< NodeId[num_edges]
  kOutType = 5,        ///< EdgeTypeId[num_edges]
  kOutW = 6,           ///< double[num_edges]
  kInOffsets = 7,      ///< uint64_t[num_nodes + 1]
  kInSrc = 8,          ///< NodeId[num_edges]
  kInType = 9,         ///< EdgeTypeId[num_edges]
  kInW = 10,           ///< double[num_edges]
  kNodeTypeNames = 11, ///< u32 count, then per name u32 len + bytes
  kEdgeTypeNames = 12, ///< u32 count, then per name u32 len + bytes
  kLabelOffsets = 13,  ///< uint64_t[num_nodes + 1] (optional)
  kLabelBytes = 14,    ///< concatenated label bytes (optional)
};

/// Header flag bits.
inline constexpr uint32_t kSnapshotFlagLabels = 1u << 0;

/// File header, at offset 0.
struct SnapshotHeaderOnDisk {
  char magic[8];           ///< "EMGRCSR1"
  uint32_t version;        ///< 1
  uint32_t endian;         ///< kSnapshotEndianTag on a little-endian host
  uint64_t num_nodes;
  uint64_t num_edges;
  uint32_t num_node_types;
  uint32_t num_edge_types;
  uint32_t section_count;  ///< entries in the section table
  uint32_t flags;          ///< kSnapshotFlag*
  uint32_t table_crc;      ///< CRC-32 of the section table bytes
  uint32_t header_crc;     ///< CRC-32 of the preceding 52 bytes
};
static_assert(sizeof(SnapshotHeaderOnDisk) == 56);
static_assert(std::is_trivially_copyable_v<SnapshotHeaderOnDisk>);

/// One entry of the section table (immediately after the header).
struct SnapshotSectionOnDisk {
  uint32_t id;          ///< SnapshotSectionId
  uint32_t reserved;    ///< 0
  uint64_t offset;      ///< absolute file offset, kSnapshotAlign-aligned
  uint64_t bytes;       ///< payload length
  uint32_t payload_crc; ///< CRC-32 of the payload bytes
  uint32_t reserved2;   ///< 0
};
static_assert(sizeof(SnapshotSectionOnDisk) == 32);
static_assert(std::is_trivially_copyable_v<SnapshotSectionOnDisk>);

/// True when the first bytes of `path` carry the snapshot magic.
bool SniffCsrSnapshot(const std::string& path);

// --- Writer ------------------------------------------------------------------

/// Graph metadata serialized alongside the columns.
struct SnapshotMeta {
  std::vector<std::string> node_type_names;
  std::vector<std::string> edge_type_names;
  /// Optional node-label source, invoked with each node id in order (twice:
  /// once to size the pool, once to stream it — must be deterministic).
  /// Null writes a label-free snapshot.
  std::function<std::string(NodeId)> label;
};

/// Writes `csr` + `meta` to `path` as an `emigre.csr.v1` snapshot.
[[nodiscard]] Status WriteCsrSnapshot(const CsrGraph& csr,
                                      const SnapshotMeta& meta,
                                      const std::string& path);

/// Convenience: builds the CSR form of `g` and snapshots it with `g`'s
/// type registries and labels.
[[nodiscard]] Status WriteGraphSnapshot(const HinGraph& g,
                                        const std::string& path);

// --- Loader ------------------------------------------------------------------

enum class SnapshotMapMode {
  kAuto, ///< mmap when available, else buffered read
  kMmap, ///< require mmap; error on hosts without it
  kRead, ///< force the buffered-read fallback
};

struct SnapshotLoadOptions {
  SnapshotMapMode mode = SnapshotMapMode::kAuto;
  /// Sweep every payload and verify its CRC-32 at load time. Off by
  /// default: a full sweep pages the whole file in, which defeats the
  /// lazy mmap cold start. Header, section table and structural bounds
  /// are always verified.
  bool verify_checksums = false;
};

/// \brief Read-only mapping (or buffered copy) of a snapshot file.
class MappedBlob {
 public:
  MappedBlob() = default; ///< empty; populate via Open
  ~MappedBlob();
  MappedBlob(const MappedBlob&) = delete;
  MappedBlob& operator=(const MappedBlob&) = delete;

  /// Maps `path` per `mode`. IOError on open/map/read failure.
  [[nodiscard]] static Result<std::shared_ptr<MappedBlob>> Open(
      const std::string& path, SnapshotMapMode mode);

  const uint8_t* data() const { return data_; }
  uint64_t size() const { return size_; }
  bool mmap_backed() const { return mmap_backed_; }

 private:
  uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
  bool mmap_backed_ = false;
  std::unique_ptr<uint8_t[]> heap_; ///< owns `data_` in read fallback
};

/// \brief A loaded snapshot: satisfies `GraphLike` (aliasing the mapped
/// columns through `CsrGraph`) and carries the HinGraph-style metadata
/// surface (type registries, labels) the explain pipeline formats with.
///
/// Copies are cheap — they share the mapping. The mapping lives as long as
/// any copy (or any `CsrGraph` aliased from `csr()`) does; views handed to
/// kernels pin it via the CsrGraph keepalive.
class CsrSnapshotView {
 public:
  /// Maps and validates `path`. Corruption maps to typed errors: bad
  /// magic/version/endian/CRC or inconsistent bounds -> InvalidArgument,
  /// truncation or map/read failure -> IOError.
  [[nodiscard]] static Result<CsrSnapshotView> Load(
      const std::string& path, const SnapshotLoadOptions& opts = {});

  // GraphLike surface (mirrors CsrGraph).
  size_t NumNodes() const { return csr_.NumNodes(); }
  size_t NumEdges() const { return csr_.NumEdges(); }
  size_t OutDegree(NodeId n) const { return csr_.OutDegree(n); }
  size_t InDegree(NodeId n) const { return csr_.InDegree(n); }
  double OutWeight(NodeId n) const { return csr_.OutWeight(n); }
  NodeTypeId NodeType(NodeId n) const { return csr_.NodeType(n); }
  bool IsValidNode(NodeId n) const { return csr_.IsValidNode(n); }
  bool HasEdge(NodeId src, NodeId dst) const { return csr_.HasEdge(src, dst); }
  bool HasEdge(NodeId src, NodeId dst, EdgeTypeId type) const {
    return csr_.HasEdge(src, dst, type);
  }
  double EdgeWeight(NodeId src, NodeId dst, EdgeTypeId type) const {
    return csr_.EdgeWeight(src, dst, type);
  }
  template <typename F>
  void ForEachOutEdge(NodeId n, F&& fn) const {
    csr_.ForEachOutEdge(n, std::forward<F>(fn));
  }
  template <typename F>
  void ForEachInEdge(NodeId n, F&& fn) const {
    csr_.ForEachInEdge(n, std::forward<F>(fn));
  }

  /// The aliased CSR view — hand this to push engines and overlays. It
  /// pins the mapping independently of this object.
  const CsrGraph& csr() const { return csr_; }

  // Metadata surface (HinGraph-compatible).
  NodeTypeId FindNodeType(std::string_view name) const {
    return node_types_.Find(name);
  }
  EdgeTypeId FindEdgeType(std::string_view name) const {
    return edge_types_.Find(name);
  }
  const std::string& NodeTypeName(NodeTypeId id) const {
    return node_types_.Name(id);
  }
  const std::string& EdgeTypeName(EdgeTypeId id) const {
    return edge_types_.Name(id);
  }
  size_t NumNodeTypes() const { return node_types_.size(); }
  size_t NumEdgeTypes() const { return edge_types_.size(); }

  bool has_labels() const { return label_offsets_ != nullptr; }
  /// View into the mapped label pool; empty when the snapshot carries no
  /// labels. Valid while the mapping lives.
  std::string_view Label(NodeId n) const {
    if (label_offsets_ == nullptr) return {};
    return {label_bytes_ + label_offsets_[n],
            static_cast<size_t>(label_offsets_[n + 1] - label_offsets_[n])};
  }
  /// Label, or "#<id>" when absent (mirrors `HinGraph::DisplayName`).
  std::string DisplayName(NodeId n) const;

  bool mmap_backed() const { return blob_->mmap_backed(); }
  uint64_t file_bytes() const { return blob_->size(); }

 private:
  CsrSnapshotView() = default;

  CsrGraph csr_;
  std::shared_ptr<MappedBlob> blob_;
  NodeTypeRegistry node_types_;
  EdgeTypeRegistry edge_types_;
  const uint64_t* label_offsets_ = nullptr;
  const char* label_bytes_ = nullptr;
};

}  // namespace emigre::graph

#endif  // EMIGRE_GRAPH_CSR_SNAPSHOT_H_
