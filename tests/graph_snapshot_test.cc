// The emigre.csr.v1 mmap snapshot (docs/data_format.md): round trips
// against the HinGraph it was written from, byte-identical output from the
// streaming dataset->CSR converter, corruption robustness, and the check
// that explanations are identical on mmap-backed and heap-backed graphs.

#include "graph/csr_snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "data/amazon_lite.h"
#include "data/bin_io.h"
#include "data/dataset_to_csr.h"
#include "data/synthetic_amazon.h"
#include "explain/emigre.h"
#include "explain/options.h"
#include "fault/fault.h"
#include "graph/hin_graph.h"
#include "test_util.h"
#include "util/status.h"

namespace emigre::graph {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct Edge {
  NodeId dst;
  EdgeTypeId type;
  double w;
  bool operator==(const Edge& o) const {
    return dst == o.dst && type == o.type && w == o.w;
  }
};

template <typename G>
std::vector<Edge> OutEdges(const G& g, NodeId n) {
  std::vector<Edge> out;
  g.ForEachOutEdge(n, [&](NodeId dst, EdgeTypeId t, double w) {
    out.push_back({dst, t, w});
  });
  return out;
}

TEST(CsrSnapshotTest, RoundTripsTheBookGraph) {
  test::BookGraph bg = test::MakeBookGraph();
  std::string path = test::MakeTempDir("snap") + "/book.csr";
  ASSERT_TRUE(WriteGraphSnapshot(bg.g, path).ok());
  ASSERT_TRUE(SniffCsrSnapshot(path));

  auto view = CsrSnapshotView::Load(path);
  ASSERT_TRUE(view.ok()) << view.status();
  ASSERT_EQ(view->NumNodes(), bg.g.NumNodes());
  ASSERT_EQ(view->NumEdges(), bg.g.NumEdges());
  ASSERT_EQ(view->NumNodeTypes(), bg.g.NumNodeTypes());
  for (NodeTypeId t = 0; t < bg.g.NumNodeTypes(); ++t) {
    EXPECT_EQ(view->NodeTypeName(t), bg.g.NodeTypeName(t));
  }
  for (NodeId n = 0; n < bg.g.NumNodes(); ++n) {
    EXPECT_EQ(view->NodeType(n), bg.g.NodeType(n));
    EXPECT_EQ(view->Label(n), bg.g.Label(n));
    // Adjacency must round-trip in list order, weights bit for bit.
    EXPECT_EQ(OutEdges(*view, n), OutEdges(bg.g, n)) << "node " << n;
  }
}

TEST(CsrSnapshotTest, StreamingConverterMatchesBuildRouteBytes) {
  data::SyntheticAmazonOptions gen;
  gen.num_users = 20;
  gen.num_items = 100;
  gen.num_categories = 6;
  gen.min_actions_per_user = 4;
  gen.max_actions_per_user = 10;
  gen.embedding_dim = 4;
  auto ds = data::GenerateSyntheticAmazon(gen);
  ASSERT_TRUE(ds.ok());

  std::string dir = test::MakeTempDir("snapconv");
  std::string bin = dir + "/ds.bin";
  ASSERT_TRUE(data::SaveDatasetBin(ds.value(), bin).ok());

  // Route A: the streaming two-pass converter (never materializes a graph).
  std::string converted = dir + "/converted.csr";
  auto stats = data::ConvertBinDatasetToCsrSnapshot(bin, converted);
  ASSERT_TRUE(stats.ok()) << stats.status();

  // Route B: BuildAmazonLite with the converter's semantics (no similarity
  // links, no neighborhood pruning) and the generic graph writer.
  data::AmazonLiteOptions lite_opts;
  lite_opts.max_similar_per_review = 0;
  lite_opts.neighborhood_hops = 0;
  auto lite = data::BuildAmazonLite(ds.value(), lite_opts);
  ASSERT_TRUE(lite.ok());
  std::string built = dir + "/built.csr";
  ASSERT_TRUE(WriteGraphSnapshot(lite->graph, built).ok());

  EXPECT_EQ(stats->num_nodes, lite->graph.NumNodes());
  EXPECT_EQ(stats->num_edges, lite->graph.NumEdges());
  EXPECT_EQ(ReadFileBytes(converted), ReadFileBytes(built));
}

TEST(CsrSnapshotTest, CorruptionSurfacesAsTypedErrors) {
  test::BookGraph bg = test::MakeBookGraph();
  std::string dir = test::MakeTempDir("snap");
  std::string path = dir + "/book.csr";
  ASSERT_TRUE(WriteGraphSnapshot(bg.g, path).ok());
  const std::string good = ReadFileBytes(path);
  ASSERT_GT(good.size(), 4096u);

  {  // Bad magic.
    std::string bad = good;
    bad[0] = 'Z';
    WriteFileBytes(dir + "/magic.csr", bad);
    EXPECT_FALSE(SniffCsrSnapshot(dir + "/magic.csr"));
    auto v = CsrSnapshotView::Load(dir + "/magic.csr");
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
  }
  {  // Truncation below the declared payload extent.
    WriteFileBytes(dir + "/trunc.csr", good.substr(0, good.size() / 2));
    auto v = CsrSnapshotView::Load(dir + "/trunc.csr");
    ASSERT_FALSE(v.ok());
    EXPECT_TRUE(v.status().code() == StatusCode::kIOError ||
                v.status().code() == StatusCode::kInvalidArgument)
        << v.status();
  }
  {  // Payload bit rot, caught by the opt-in checksum sweep.
    std::string bad = good;
    bad.back() = static_cast<char>(bad.back() ^ 0x10);
    WriteFileBytes(dir + "/bitrot.csr", bad);
    SnapshotLoadOptions verify;
    verify.verify_checksums = true;
    auto v = CsrSnapshotView::Load(dir + "/bitrot.csr", verify);
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
  }
  {  // Garbage file.
    WriteFileBytes(dir + "/garbage.csr", "not a snapshot at all");
    auto v = CsrSnapshotView::Load(dir + "/garbage.csr");
    ASSERT_FALSE(v.ok());
    EXPECT_TRUE(v.status().code() == StatusCode::kIOError ||
                v.status().code() == StatusCode::kInvalidArgument)
        << v.status();
  }
}

TEST(CsrSnapshotTest, FaultSiteInjectsOnMap) {
  if (!fault::kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault sites compiled out";
  }
  test::BookGraph bg = test::MakeBookGraph();
  std::string path = test::MakeTempDir("snap") + "/book.csr";
  ASSERT_TRUE(WriteGraphSnapshot(bg.g, path).ok());

  auto& reg = fault::FaultRegistry::Global();
  reg.Reset();
  fault::FaultSpec spec;
  spec.site = "graph.snapshot.map";
  spec.nth = 1;
  spec.code = StatusCode::kIOError;
  ASSERT_TRUE(reg.Arm(spec).ok());
  auto v = CsrSnapshotView::Load(path);
  reg.Reset();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kIOError);
}

// The acceptance bar for the snapshot layer: the explanation is the same
// whether the graph lives on the heap (HinGraph) or behind the mmap
// (CsrSnapshotView).
TEST(CsrSnapshotTest, ExplanationsAgreeOnMmapAndHeapBackings) {
  test::BookGraph bg = test::MakeBookGraph();
  std::string path = test::MakeTempDir("snap") + "/book.csr";
  ASSERT_TRUE(WriteGraphSnapshot(bg.g, path).ok());
  auto view = CsrSnapshotView::Load(path);
  ASSERT_TRUE(view.ok()) << view.status();

  explain::EmigreOptions opts = test::MakeBookOptions(bg);
  opts.deadline_seconds = 0.0;

  const std::vector<NodeId> wnis = {bg.lotr, bg.python, bg.candide,
                                    bg.alchemist};
  size_t found = 0;
  explain::Emigre heap_engine(bg.g, opts);
  explain::EmigreT<CsrSnapshotView> mmap_engine(view.value(), opts);
  for (NodeId user : {bg.paul, bg.alice, bg.bob}) {
    for (NodeId wni : wnis) {
      for (explain::Mode mode :
           {explain::Mode::kRemove, explain::Mode::kAdd}) {
        explain::WhyNotQuestion q{user, wni};
        auto a =
            heap_engine.Explain(q, mode, explain::Heuristic::kExhaustive);
        auto b =
            mmap_engine.Explain(q, mode, explain::Heuristic::kExhaustive);
        ASSERT_EQ(a.ok(), b.ok()) << "user " << user << " wni " << wni;
        if (!a.ok()) continue;
        EXPECT_EQ(a->found, b->found);
        EXPECT_EQ(a->edges, b->edges);
        EXPECT_EQ(a->new_rec, b->new_rec);
        EXPECT_EQ(a->failure, b->failure);
        if (a->found) ++found;
      }
    }
  }
  // The grid must actually exercise successful explanations, not just
  // agree on failures.
  EXPECT_GT(found, 0u);
}

}  // namespace
}  // namespace emigre::graph
