// emigre — command-line interface to the library.
//
// Subcommands:
//   generate    synthesize an Amazon-style dataset (CSV dir or bin file)
//   convert     dataset <-> binary container; dataset/graph -> CSR snapshot
//   inspect     peek into a binary dataset or snapshot without loading it
//   build-graph run the §6.1 preprocessing pipeline and save the HIN
//   stats       print Table-4-style degree statistics of a saved graph
//   recommend   print a user's top-k recommendation list
//   explain     answer a Why-Not question
//   experiment  run the §6.2 evaluation and write reports + records CSV
//   selfcheck   run the invariant validators (docs/invariants.md)
//   chaos       seeded fault-injection soak (docs/robustness.md)
//   perfgate    gate a bench run against its checked-in baseline
//
// The query commands (recommend, explain, experiment, selfcheck, stats)
// accept either a `emigre build-graph` HIN file or an `emigre.csr.v1`
// snapshot (docs/data_format.md) for --graph; snapshots are mmap'd and
// recommend/explain serve them without materializing a mutable graph.
//
// Exit codes: 0 success, 1 internal error, 2 usage error, 3 the Why-Not
// question was valid but no explanation exists. For perfgate: 0 within
// tolerances, 1 regression, 2 usage.
//
// Examples:
//   emigre generate --dir /tmp/ds --users 120 --items 2000
//   emigre generate --preset large --format bin --out /tmp/large.bin
//   emigre convert --in /tmp/ds --to bin --out /tmp/ds.bin
//   emigre convert --in /tmp/ds.bin --to snapshot --out /tmp/ds.csr
//   emigre inspect --in /tmp/ds.bin --section ratings --head 5
//   emigre build-graph --dataset /tmp/ds --out /tmp/amazon.graph
//   emigre stats --graph /tmp/amazon.graph
//   emigre recommend --graph /tmp/ds.csr --user 17 --top 10
//   emigre explain --graph /tmp/amazon.graph --user 17 --item 261
//       --mode add --heuristic incremental
//   emigre experiment --graph /tmp/amazon.graph --out /tmp/records.csv
//   emigre selfcheck --graph /tmp/amazon.graph --level full
//   emigre perfgate --baseline bench/baselines/BENCH_ppr_kernels.json
//       --current BENCH_ppr_kernels.json --config bench/baselines/perfgate.json

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "check/check_level.h"
#include "check/selfcheck.h"
#include "data/amazon_lite.h"
#include "data/bin_io.h"
#include "data/binfmt.h"
#include "data/csv_io.h"
#include "data/dataset_to_csr.h"
#include "data/synthetic_amazon.h"
#include "eval/chaos.h"
#include "eval/methods.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "eval/runner.h"
#include "eval/scenario.h"
#include "explain/emigre.h"
#include "explain/format.h"
#include "explain/meta.h"
#include "explain/search_space.h"
#include "fault/fault.h"
#include <fstream>
#include <sstream>

#include "graph/csr_snapshot.h"
#include "graph/io.h"
#include "graph/materialize.h"
#include "graph/stats.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/perfgate.h"
#include "obs/query_log.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace emigre::cli {
namespace {

// Exit-code contract, asserted by tests/cli_smoke_test.sh.
constexpr int kExitInternal = 1;       ///< infrastructure / internal failure
constexpr int kExitUsage = 2;          ///< bad flags, unknown command
constexpr int kExitNoExplanation = 3;  ///< valid question, no explanation

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return status.code() == StatusCode::kInvalidArgument ? kExitUsage
                                                       : kExitInternal;
}

/// Observability flags shared by the query subcommands; see
/// docs/observability.md.
void AddObsFlags(FlagParser* parser) {
  parser->AddFlag("trace", "print the span tree and metrics delta", "false");
  parser->AddFlag("metrics-out", "write the metrics delta as JSON to FILE",
                  "");
  parser->AddFlag("trace-out",
                  "write a chrome://tracing timeline JSON to FILE", "");
  parser->AddFlag("query-log",
                  "append one emigre.query.v1 record per Explain to FILE",
                  "");
}

/// Captures a registry baseline at construction; Finish() prints and/or
/// writes the delta accumulated since then, so the output reflects only this
/// command's work. Call Finish on every post-query exit path (found and
/// not-found alike). Construct before the engine: `query_log()` must be
/// wired into EmigreOptions ahead of the first query.
class ObsSession {
 public:
  explicit ObsSession(const FlagParser& parser)
      : trace_(parser.GetBool("trace").ValueOrDie()),
        metrics_out_(parser.GetString("metrics-out").ValueOrDie()),
        trace_out_(parser.GetString("trace-out").ValueOrDie()) {
    if (trace_ || !trace_out_.empty()) {
      obs::ResetTrace();
      obs::SetTracingEnabled(true);
    }
    if (!trace_out_.empty()) {
      obs::ResetTimeline();
      obs::SetTimelineEnabled(true);
    }
    std::string query_log_path = parser.GetString("query-log").ValueOrDie();
    if (!query_log_path.empty()) {
      Result<std::unique_ptr<obs::QueryLog>> log =
          obs::QueryLog::Open(query_log_path);
      if (log.ok()) {
        query_log_ = std::move(log).value();
      } else {
        init_status_ = log.status();
      }
    }
    before_ = obs::Registry::Global().Snapshot();
  }

  /// Non-OK when a sink could not be opened; callers bail out via Fail.
  const Status& init_status() const { return init_status_; }

  /// The audit sink to wire into EmigreOptions (null when --query-log is
  /// not set).
  obs::QueryLog* query_log() const { return query_log_.get(); }

  int Finish(int exit_code) {
    obs::MetricsSnapshot delta =
        obs::Delta(before_, obs::Registry::Global().Snapshot());
    std::vector<obs::SpanStat> spans = obs::TraceSnapshot();
    if (trace_) {
      std::printf("\n== trace ==\n%s", obs::FormatTraceTree(spans).c_str());
      std::printf("\n== metrics ==\n%s",
                  obs::FormatMetricsTable(delta).c_str());
    }
    if (!metrics_out_.empty()) {
      Status st = obs::WriteMetricsJson(metrics_out_, delta, spans);
      if (!st.ok()) return Fail(st);
      std::printf("metrics -> %s\n", metrics_out_.c_str());
    }
    if (!trace_out_.empty()) {
      Status st = obs::WriteChromeTrace(trace_out_);
      if (!st.ok()) return Fail(st);
      std::printf("timeline -> %s\n", trace_out_.c_str());
    }
    if (query_log_ != nullptr) {
      std::printf("query log -> %s\n", query_log_->path().c_str());
    }
    return exit_code;
  }

 private:
  bool trace_;
  std::string metrics_out_;
  std::string trace_out_;
  std::unique_ptr<obs::QueryLog> query_log_;
  Status init_status_;
  obs::MetricsSnapshot before_;
};

/// Explainer-options wiring shared by the query commands; works on any
/// graph carrying the schema surface (HinGraph or CsrSnapshotView).
template <typename G>
Result<explain::EmigreOptions> QueryOptionsFor(const G& g) {
  explain::EmigreOptions opts;
  graph::NodeTypeId item_type = g.FindNodeType("item");
  if (item_type == graph::kInvalidNodeType) {
    return Status::InvalidArgument(
        "graph has no 'item' node type; was it built by `emigre "
        "build-graph`?");
  }
  opts.rec.item_type = item_type;
  for (const char* name : {"rated", "reviewed"}) {
    graph::EdgeTypeId t = g.FindEdgeType(name);
    if (t != graph::kInvalidEdgeType) {
      opts.allowed_edge_types.push_back(t);
    }
  }
  opts.add_edge_type = g.FindEdgeType("rated");
  opts.rec.ppr.epsilon = 1e-7;
  opts.deadline_seconds = 5.0;
  return opts;
}

/// Loads --graph as a mutable HinGraph for the commands that need one
/// (stats, experiment, selfcheck): a snapshot is materialized, anything
/// else goes through the HIN reader.
Result<graph::HinGraph> LoadHinGraphAny(const std::string& path) {
  if (graph::SniffCsrSnapshot(path)) {
    EMIGRE_ASSIGN_OR_RETURN(graph::CsrSnapshotView view,
                            graph::CsrSnapshotView::Load(path));
    return std::move(*graph::MaterializeHinGraph(view));
  }
  return graph::LoadGraph(path);
}

int RunGenerate(const std::vector<std::string>& args) {
  FlagParser parser("emigre generate — synthesize the Amazon-style dataset");
  parser.AddFlag("dir", "output directory for the CSV files", "");
  parser.AddFlag("out", "output file for --format bin", "");
  parser.AddFlag("format", "output container: csv | bin", "csv");
  parser.AddFlag("preset",
                 "workload band: small | medium | large (overrides "
                 "users/items/categories; see docs/data_format.md)",
                 "");
  parser.AddFlag("users", "number of users", "120");
  parser.AddFlag("items", "number of items", "2000");
  parser.AddFlag("categories", "number of categories", "32");
  parser.AddFlag("seed", "generator seed", "20240416");
  Status st = parser.Parse(args);
  if (!st.ok()) return Fail(st);

  data::SyntheticAmazonOptions gen;
  std::string preset = parser.GetString("preset").ValueOrDie();
  if (!preset.empty()) {
    Result<data::SyntheticAmazonOptions> p =
        data::SyntheticAmazonPreset(preset);
    if (!p.ok()) return Fail(p.status());
    gen = p.value();
  } else {
    gen.num_users = static_cast<size_t>(parser.GetInt("users").ValueOrDie());
    gen.num_items = static_cast<size_t>(parser.GetInt("items").ValueOrDie());
    gen.num_categories =
        static_cast<size_t>(parser.GetInt("categories").ValueOrDie());
  }
  gen.seed = static_cast<uint64_t>(parser.GetInt("seed").ValueOrDie());

  std::string format = parser.GetString("format").ValueOrDie();
  if (format == "bin") {
    // Streamed: rows go straight to the container, so even the `large`
    // band generates in O(users + items) memory.
    std::string out = parser.GetString("out").ValueOrDie();
    if (out.empty()) {
      return Fail(
          Status::InvalidArgument("--out is required with --format bin"));
    }
    st = data::GenerateSyntheticAmazonBin(gen, out);
    if (!st.ok()) return Fail(st);
    Result<data::binfmt::BinReader> reader = data::binfmt::BinReader::Open(out);
    if (!reader.ok()) return Fail(reader.status());
    std::printf("dataset:");
    for (const data::binfmt::SectionInfo& s : reader->sections()) {
      std::printf(" %llu %s,", static_cast<unsigned long long>(s.row_count),
                  s.name.c_str());
    }
    std::printf(" -> %s\n", out.c_str());
    return 0;
  }
  if (format != "csv") {
    return Fail(Status::InvalidArgument("unknown --format " + format +
                                        " (want csv|bin)"));
  }
  std::string dir = parser.GetString("dir").ValueOrDie();
  if (dir.empty()) return Fail(Status::InvalidArgument("--dir is required"));
  Result<data::Dataset> ds = data::GenerateSyntheticAmazon(gen);
  if (!ds.ok()) return Fail(ds.status());
  std::filesystem::create_directories(dir);
  st = data::SaveDatasetCsv(ds.value(), dir);
  if (!st.ok()) return Fail(st);
  std::printf("dataset: %zu users, %zu items, %zu ratings, %zu reviews -> "
              "%s\n",
              ds->users.size(), ds->items.size(), ds->ratings.size(),
              ds->reviews.size(), dir.c_str());
  return 0;
}

int RunConvert(const std::vector<std::string>& args) {
  FlagParser parser(
      "emigre convert — re-encode a dataset, or cut a CSR snapshot");
  parser.AddFlag("in",
                 "input: CSV dataset directory, emigre.bin.v1 file, or (for "
                 "--to snapshot) a build-graph HIN file",
                 "");
  parser.AddFlag("out", "output path", "");
  parser.AddFlag("to", "target encoding: csv | bin | snapshot", "");
  parser.AddFlag("min-stars",
                 "snapshot from a dataset: keep ratings strictly above this",
                 "3");
  Status st = parser.Parse(args);
  if (!st.ok()) return Fail(st);
  std::string in = parser.GetString("in").ValueOrDie();
  std::string out = parser.GetString("out").ValueOrDie();
  std::string to = parser.GetString("to").ValueOrDie();
  if (in.empty() || out.empty() || to.empty()) {
    return Fail(
        Status::InvalidArgument("--in, --out and --to are required"));
  }

  if (to == "bin" || to == "csv") {
    Result<data::Dataset> ds = data::LoadDatasetAuto(in, "auto");
    if (!ds.ok()) return Fail(ds.status());
    if (to == "bin") {
      st = data::SaveDatasetBin(ds.value(), out);
    } else {
      std::filesystem::create_directories(out);
      st = data::SaveDatasetCsv(ds.value(), out);
    }
    if (!st.ok()) return Fail(st);
    std::printf("dataset: %zu users, %zu items, %zu ratings, %zu reviews -> "
                "%s (%s)\n",
                ds->users.size(), ds->items.size(), ds->ratings.size(),
                ds->reviews.size(), out.c_str(), to.c_str());
    return 0;
  }
  if (to != "snapshot") {
    return Fail(Status::InvalidArgument("unknown --to " + to +
                                        " (want csv|bin|snapshot)"));
  }

  // Snapshot targets. A binary dataset streams through the two-pass
  // converter (never materializing a HinGraph — the 10M-node path); a CSV
  // dataset goes through BuildAmazonLite with the same semantics
  // (similarity links off, no neighborhood restriction); a HIN file is
  // snapshotted as-is.
  data::DatasetToCsrOptions copts;
  copts.min_stars_exclusive =
      static_cast<int>(parser.GetInt("min-stars").ValueOrDie());
  if (data::binfmt::SniffBinDataset(in)) {
    Result<data::DatasetToCsrStats> stats =
        data::ConvertBinDatasetToCsrSnapshot(in, out, copts);
    if (!stats.ok()) return Fail(stats.status());
    std::printf("snapshot: %llu nodes, %llu edges (%llu kept ratings, %llu "
                "kept reviews) -> %s\n",
                static_cast<unsigned long long>(stats->num_nodes),
                static_cast<unsigned long long>(stats->num_edges),
                static_cast<unsigned long long>(stats->kept_ratings),
                static_cast<unsigned long long>(stats->kept_reviews),
                out.c_str());
    return 0;
  }
  std::error_code ec;
  graph::HinGraph g;
  if (std::filesystem::is_directory(in, ec)) {
    Result<data::Dataset> ds = data::LoadDatasetCsv(in);
    if (!ds.ok()) return Fail(ds.status());
    data::AmazonLiteOptions lite_opts;
    lite_opts.min_stars_exclusive = copts.min_stars_exclusive;
    lite_opts.max_similar_per_review = 0;
    lite_opts.neighborhood_hops = 0;
    Result<data::AmazonLiteGraph> lite =
        data::BuildAmazonLite(ds.value(), lite_opts);
    if (!lite.ok()) return Fail(lite.status());
    g = std::move(lite->graph);
  } else {
    Result<graph::HinGraph> loaded = graph::LoadGraph(in);
    if (!loaded.ok()) return Fail(loaded.status());
    g = std::move(loaded).value();
  }
  st = graph::WriteGraphSnapshot(g, out);
  if (!st.ok()) return Fail(st);
  std::printf("snapshot: %zu nodes, %zu edges -> %s\n", g.NumNodes(),
              g.NumEdges(), out.c_str());
  return 0;
}

std::string_view SnapshotSectionName(uint32_t id) {
  switch (static_cast<graph::SnapshotSectionId>(id)) {
    case graph::SnapshotSectionId::kNodeType: return "node-type";
    case graph::SnapshotSectionId::kOutWeight: return "out-weight";
    case graph::SnapshotSectionId::kOutOffsets: return "out-offsets";
    case graph::SnapshotSectionId::kOutDst: return "out-dst";
    case graph::SnapshotSectionId::kOutType: return "out-type";
    case graph::SnapshotSectionId::kOutW: return "out-w";
    case graph::SnapshotSectionId::kInOffsets: return "in-offsets";
    case graph::SnapshotSectionId::kInSrc: return "in-src";
    case graph::SnapshotSectionId::kInType: return "in-type";
    case graph::SnapshotSectionId::kInW: return "in-w";
    case graph::SnapshotSectionId::kNodeTypeNames: return "node-type-names";
    case graph::SnapshotSectionId::kEdgeTypeNames: return "edge-type-names";
    case graph::SnapshotSectionId::kLabelOffsets: return "label-offsets";
    case graph::SnapshotSectionId::kLabelBytes: return "label-bytes";
  }
  return "unknown";
}

/// Prints the snapshot header + section table (raw, without mapping the
/// payloads) and the loaded type tables.
int InspectSnapshot(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  graph::SnapshotHeaderOnDisk header{};
  if (!file.read(reinterpret_cast<char*>(&header), sizeof(header))) {
    return Fail(Status::IOError("cannot read snapshot header of " + path));
  }
  std::vector<graph::SnapshotSectionOnDisk> table(header.section_count);
  if (header.section_count > 0 &&
      !file.read(reinterpret_cast<char*>(table.data()),
                 static_cast<std::streamsize>(sizeof(table[0]) *
                                              table.size()))) {
    return Fail(Status::IOError("cannot read snapshot section table"));
  }
  Result<graph::CsrSnapshotView> view = graph::CsrSnapshotView::Load(path);
  if (!view.ok()) return Fail(view.status());
  std::printf("emigre.csr.v1 snapshot: %zu nodes, %zu edges\n",
              view->NumNodes(), view->NumEdges());
  std::printf("node types:");
  for (size_t t = 0; t < view->NumNodeTypes(); ++t) {
    std::printf(" %s", view->NodeTypeName(
        static_cast<graph::NodeTypeId>(t)).c_str());
  }
  std::printf("\nedge types:");
  for (size_t t = 0; t < view->NumEdgeTypes(); ++t) {
    std::printf(" %s", view->EdgeTypeName(
        static_cast<graph::EdgeTypeId>(t)).c_str());
  }
  std::printf("\nlabels: %s\n", view->has_labels() ? "yes" : "no");
  std::printf("backing: %s, %llu bytes\n",
              view->mmap_backed() ? "mmap" : "read",
              static_cast<unsigned long long>(view->file_bytes()));
  std::printf("sections:\n");
  for (const graph::SnapshotSectionOnDisk& s : table) {
    std::printf("  %-16s offset=%-12llu bytes=%-12llu crc=%08x\n",
                std::string(SnapshotSectionName(s.id)).c_str(),
                static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.bytes), s.payload_crc);
  }
  return 0;
}

/// Prints one decoded dataset row, tab-separated, prefixed by its index.
void PrintRow(uint64_t index, const std::vector<std::string>& fields) {
  std::printf("%llu", static_cast<unsigned long long>(index));
  for (const std::string& f : fields) std::printf("\t%s", f.c_str());
  std::printf("\n");
}

int RunInspect(const std::vector<std::string>& args) {
  FlagParser parser(
      "emigre inspect — peek into a binary dataset or CSR snapshot");
  parser.AddFlag("in", "emigre.bin.v1 dataset or emigre.csr.v1 snapshot", "");
  parser.AddFlag("section", "dataset section to read rows from", "");
  parser.AddFlag("head", "print the first N rows of --section", "0");
  parser.AddFlag("tail", "print the last N rows of --section", "0");
  parser.AddFlag("sample",
                 "print N uniformly sampled rows of --section (seeded "
                 "reservoir; deterministic for a given --seed and file)",
                 "0");
  parser.AddFlag("seed", "sampling seed", "20240416");
  Status st = parser.Parse(args);
  if (!st.ok()) return Fail(st);
  std::string in = parser.GetString("in").ValueOrDie();
  if (in.empty()) return Fail(Status::InvalidArgument("--in is required"));
  std::error_code ec;
  if (!std::filesystem::exists(in, ec)) {
    return Fail(Status::IOError("cannot open: " + in));
  }
  if (graph::SniffCsrSnapshot(in)) return InspectSnapshot(in);
  if (!data::binfmt::SniffBinDataset(in)) {
    return Fail(Status::InvalidArgument(
        in + " is neither an emigre.bin.v1 dataset nor an emigre.csr.v1 "
             "snapshot"));
  }

  Result<data::binfmt::BinReader> reader = data::binfmt::BinReader::Open(in);
  if (!reader.ok()) return Fail(reader.status());
  std::string section = parser.GetString("section").ValueOrDie();
  if (section.empty()) {
    // Section stats: the directory is header-only, so this never touches
    // the payloads no matter how big the file is.
    std::printf("emigre.bin.v1 dataset: %zu sections\n",
                reader->sections().size());
    for (const data::binfmt::SectionInfo& s : reader->sections()) {
      std::printf("section %s: %llu rows, %zu columns, %llu payload bytes\n",
                  s.name.c_str(),
                  static_cast<unsigned long long>(s.row_count),
                  s.columns.size(),
                  static_cast<unsigned long long>(s.payload_bytes));
      for (const data::binfmt::ColumnInfo& c : s.columns) {
        std::printf("  %-12s %s%-5s %12llu values %14llu bytes\n",
                    c.name.c_str(), c.is_list ? "list<" : "",
                    (std::string(data::binfmt::DtypeName(c.dtype)) +
                     (c.is_list ? ">" : ""))
                        .c_str(),
                    static_cast<unsigned long long>(c.value_count),
                    static_cast<unsigned long long>(c.payload_bytes));
      }
    }
    return 0;
  }

  int64_t head = parser.GetInt("head").ValueOrDie();
  int64_t tail = parser.GetInt("tail").ValueOrDie();
  int64_t sample = parser.GetInt("sample").ValueOrDie();
  if ((head > 0) + (tail > 0) + (sample > 0) != 1) {
    return Fail(Status::InvalidArgument(
        "exactly one of --head/--tail/--sample must be positive"));
  }
  Result<size_t> sect = reader->FindSection(section);
  if (!sect.ok()) return Fail(sect.status());
  Result<data::binfmt::RowReader> rows =
      data::binfmt::RowReader::Open(reader.value(), sect.value());
  if (!rows.ok()) return Fail(rows.status());
  std::printf("#");
  for (const data::binfmt::ColumnInfo& c : rows->columns()) {
    std::printf("\t%s", c.name.c_str());
  }
  std::printf("\n");

  std::vector<std::string> fields;
  if (head > 0) {
    uint64_t index = 0;
    while (index < static_cast<uint64_t>(head) && rows->NextRow(&fields)) {
      PrintRow(index++, fields);
    }
  } else {
    // Tail keeps a ring of the last N rows; sample keeps a seeded
    // reservoir. Both must scan the whole section (single forward pass).
    const uint64_t n = static_cast<uint64_t>(tail > 0 ? tail : sample);
    std::vector<std::pair<uint64_t, std::vector<std::string>>> kept;
    Rng rng(static_cast<uint64_t>(parser.GetInt("seed").ValueOrDie()));
    uint64_t index = 0;
    while (rows->NextRow(&fields)) {
      if (kept.size() < n) {
        kept.emplace_back(index, fields);
      } else if (tail > 0) {
        kept[index % n] = {index, fields};
      } else {
        uint64_t j = static_cast<uint64_t>(
            rng.NextInt(0, static_cast<int64_t>(index)));
        if (j < n) kept[j] = {index, fields};
      }
      ++index;
    }
    std::sort(kept.begin(), kept.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [idx, row] : kept) PrintRow(idx, row);
  }
  if (!rows->status().ok()) return Fail(rows->status());
  return 0;
}

int RunBuildGraph(const std::vector<std::string>& args) {
  FlagParser parser("emigre build-graph — §6.1 preprocessing pipeline");
  parser.AddFlag("dataset", "dataset: CSV directory or emigre.bin.v1 file",
                 "");
  parser.AddFlag("format", "dataset container: auto | csv | bin", "auto");
  parser.AddFlag("out", "output graph file", "");
  parser.AddFlag("min-stars", "keep ratings strictly above this", "3");
  parser.AddFlag("hops", "neighborhood hops around sampled users (0=all)",
                 "4");
  parser.AddFlag("sample-users", "moderate/active users to sample", "100");
  Status st = parser.Parse(args);
  if (!st.ok()) return Fail(st);
  std::string dataset = parser.GetString("dataset").ValueOrDie();
  std::string out = parser.GetString("out").ValueOrDie();
  if (dataset.empty() || out.empty()) {
    return Fail(Status::InvalidArgument("--dataset and --out are required"));
  }

  Result<data::Dataset> ds = data::LoadDatasetAuto(
      dataset, parser.GetString("format").ValueOrDie());
  if (!ds.ok()) return Fail(ds.status());
  data::AmazonLiteOptions lite_opts;
  lite_opts.min_stars_exclusive =
      static_cast<int>(parser.GetInt("min-stars").ValueOrDie());
  lite_opts.neighborhood_hops =
      static_cast<size_t>(parser.GetInt("hops").ValueOrDie());
  lite_opts.sample_users =
      static_cast<size_t>(parser.GetInt("sample-users").ValueOrDie());
  Result<data::AmazonLiteGraph> lite =
      data::BuildAmazonLite(ds.value(), lite_opts);
  if (!lite.ok()) return Fail(lite.status());
  st = graph::SaveGraph(lite->graph, out);
  if (!st.ok()) return Fail(st);
  std::printf("graph: %zu nodes, %zu edges -> %s\n", lite->graph.NumNodes(),
              lite->graph.NumEdges(), out.c_str());
  std::printf("sampled evaluation users:");
  for (graph::NodeId u : lite->eval_users) std::printf(" %u", u);
  std::printf("\n");
  return 0;
}

int RunStats(const std::vector<std::string>& args) {
  FlagParser parser("emigre stats — degree statistics per node type");
  parser.AddFlag("graph", "graph file or CSR snapshot", "");
  Status st = parser.Parse(args);
  if (!st.ok()) return Fail(st);
  Result<graph::HinGraph> g =
      LoadHinGraphAny(parser.GetString("graph").ValueOrDie());
  if (!g.ok()) return Fail(g.status());
  std::printf("%zu nodes, %zu edges\n%s", g->NumNodes(), g->NumEdges(),
              graph::FormatDegreeStats(graph::ComputeDegreeStats(g.value()))
                  .c_str());
  return 0;
}

/// Body of `emigre recommend`, generic over the graph backing (HIN file or
/// mmap'd snapshot — the engines run on either unchanged).
template <typename G>
int RecommendOn(const G& g, const FlagParser& parser) {
  Result<explain::EmigreOptions> optsr = QueryOptionsFor(g);
  if (!optsr.ok()) return Fail(optsr.status());
  explain::EmigreOptions opts = std::move(optsr).value();
  int64_t user = parser.GetInt("user").ValueOrDie();
  if (user < 0 || !g.IsValidNode(static_cast<graph::NodeId>(user))) {
    return Fail(Status::InvalidArgument("--user must be a valid node id"));
  }
  ObsSession obs(parser);
  if (!obs.init_status().ok()) return Fail(obs.init_status());
  explain::EmigreT<G> engine(g, opts);
  auto ranking = engine.CurrentRanking(static_cast<graph::NodeId>(user))
                     .TopN(static_cast<size_t>(
                         parser.GetInt("top").ValueOrDie()));
  for (size_t i = 0; i < ranking.size(); ++i) {
    std::printf("%2zu. [%u] %-24s %.6f\n", i + 1, ranking.at(i).item,
                g.DisplayName(ranking.at(i).item).c_str(),
                ranking.at(i).score);
  }
  return obs.Finish(0);
}

int RunRecommend(const std::vector<std::string>& args) {
  FlagParser parser("emigre recommend — a user's top-k list");
  parser.AddFlag("graph", "graph file or CSR snapshot", "");
  parser.AddFlag("user", "user node id", "-1");
  parser.AddFlag("top", "list length", "10");
  AddObsFlags(&parser);
  Status st = parser.Parse(args);
  if (!st.ok()) return Fail(st);
  std::string path = parser.GetString("graph").ValueOrDie();
  if (graph::SniffCsrSnapshot(path)) {
    Result<graph::CsrSnapshotView> view = graph::CsrSnapshotView::Load(path);
    if (!view.ok()) return Fail(view.status());
    return RecommendOn(view.value(), parser);
  }
  Result<graph::HinGraph> g = graph::LoadGraph(path);
  if (!g.ok()) return Fail(g.status());
  return RecommendOn(g.value(), parser);
}

/// Body of `emigre explain`, generic over the graph backing.
template <typename G>
int ExplainOn(const G& g, const FlagParser& parser) {
  Result<explain::EmigreOptions> optsr = QueryOptionsFor(g);
  if (!optsr.ok()) return Fail(optsr.status());
  explain::EmigreOptions opts = std::move(optsr).value();
  opts.test_threads =
      static_cast<size_t>(parser.GetInt("test-threads").ValueOrDie());
  graph::NodeId user =
      static_cast<graph::NodeId>(parser.GetInt("user").ValueOrDie());
  graph::NodeId item =
      static_cast<graph::NodeId>(parser.GetInt("item").ValueOrDie());

  explain::Heuristic heuristic;
  std::string h = parser.GetString("heuristic").ValueOrDie();
  if (h == "incremental") {
    heuristic = explain::Heuristic::kIncremental;
  } else if (h == "powerset") {
    heuristic = explain::Heuristic::kPowerset;
  } else if (h == "exhaustive") {
    heuristic = explain::Heuristic::kExhaustive;
  } else if (h == "brute") {
    heuristic = explain::Heuristic::kBruteForce;
  } else {
    return Fail(Status::InvalidArgument("unknown --heuristic " + h));
  }

  ObsSession obs(parser);
  if (!obs.init_status().ok()) return Fail(obs.init_status());
  opts.query_log = obs.query_log();
  explain::EmigreT<G> engine(g, opts);
  explain::WhyNotQuestion q{user, item};
  std::string mode = parser.GetString("mode").ValueOrDie();
  Result<explain::Explanation> result =
      mode == "auto"
          ? engine.ExplainAuto(q, heuristic)
          : engine.Explain(q,
                           mode == "add" ? explain::Mode::kAdd
                                         : explain::Mode::kRemove,
                           heuristic);
  if (!result.ok()) return Fail(result.status());
  const explain::Explanation& e = result.value();
  if (!e.found) {
    std::printf("no explanation (%s)\n",
                std::string(FailureReasonName(e.failure)).c_str());
    // Meta-explanation for the failure (§6.4).
    auto space = e.mode == explain::Mode::kRemove
                     ? explain::BuildRemoveSearchSpace(
                           g, user, e.original_rec, item, opts)
                     : explain::BuildAddSearchSpace(
                           g, user, e.original_rec, item, opts);
    if (space.ok()) {
      std::printf("diagnosis: %s\n",
                  explain::DiagnoseFailure(g, space.value(), e, opts)
                      .message.c_str());
    }
    return obs.Finish(kExitNoExplanation);
  }
  std::printf("%s\n", explain::FormatExplanationSentence(g, e).c_str());
  std::printf("(%s mode, %zu action(s), %s heuristic, %zu TESTs, %.1f ms)\n",
              std::string(ModeName(e.mode)).c_str(), e.size(),
              std::string(HeuristicName(e.heuristic)).c_str(),
              e.tests_performed, e.seconds * 1e3);
  for (const auto& edge : e.edges) {
    std::printf("  %s (%s -> %s [%s])\n",
                e.mode == explain::Mode::kAdd ? "PERFORM" : "UNDO",
                g.DisplayName(edge.src).c_str(),
                g.DisplayName(edge.dst).c_str(),
                g.EdgeTypeName(edge.type).c_str());
  }
  return obs.Finish(0);
}

int RunExplain(const std::vector<std::string>& args) {
  FlagParser parser("emigre explain — answer a Why-Not question");
  parser.AddFlag("graph", "graph file or CSR snapshot", "");
  parser.AddFlag("user", "user node id", "-1");
  parser.AddFlag("item", "Why-Not item node id", "-1");
  parser.AddFlag("mode", "add | remove | auto", "auto");
  parser.AddFlag("heuristic",
                 "incremental | powerset | exhaustive | brute", "incremental");
  parser.AddFlag("test-threads",
                 "candidate-verification threads (1=serial, 0=all cores); "
                 "deterministic at any setting, see docs/parallelism.md",
                 "1");
  AddObsFlags(&parser);
  Status st = parser.Parse(args);
  if (!st.ok()) return Fail(st);
  std::string path = parser.GetString("graph").ValueOrDie();
  if (graph::SniffCsrSnapshot(path)) {
    Result<graph::CsrSnapshotView> view = graph::CsrSnapshotView::Load(path);
    if (!view.ok()) return Fail(view.status());
    return ExplainOn(view.value(), parser);
  }
  Result<graph::HinGraph> g = graph::LoadGraph(path);
  if (!g.ok()) return Fail(g.status());
  return ExplainOn(g.value(), parser);
}

int RunExperiment(const std::vector<std::string>& args) {
  FlagParser parser("emigre experiment — the §6.2 evaluation");
  parser.AddFlag("graph", "graph file", "");
  parser.AddFlag("out", "records CSV output path", "");
  parser.AddFlag("top", "recommendation list length per user", "10");
  parser.AddFlag("per-user", "Why-Not positions per user (0=all)", "3");
  parser.AddFlag("deadline", "per-attempt budget in seconds", "2.0");
  parser.AddFlag("threads", "scenario worker threads (0=all cores)", "0");
  parser.AddFlag("test-threads",
                 "candidate-verification threads per scenario worker "
                 "(1=serial, 0=all cores); the runner caps scenario workers "
                 "so the product stays within the machine",
                 "1");
  AddObsFlags(&parser);
  Status st = parser.Parse(args);
  if (!st.ok()) return Fail(st);
  // The evaluation harness mutates per-method scratch graphs, so a
  // snapshot input is materialized once up front.
  Result<graph::HinGraph> gres =
      LoadHinGraphAny(parser.GetString("graph").ValueOrDie());
  if (!gres.ok()) return Fail(gres.status());
  const graph::HinGraph& g = gres.value();
  Result<explain::EmigreOptions> optsr = QueryOptionsFor(g);
  if (!optsr.ok()) return Fail(optsr.status());
  explain::EmigreOptions opts = std::move(optsr).value();
  opts.deadline_seconds = parser.GetDouble("deadline").ValueOrDie();
  opts.test_threads =
      static_cast<size_t>(parser.GetInt("test-threads").ValueOrDie());

  // Evaluation users: every user-typed node with at least one action.
  std::vector<graph::NodeId> users;
  graph::NodeTypeId user_type = g.FindNodeType("user");
  for (graph::NodeId n = 0; n < g.NumNodes(); ++n) {
    if (g.NodeType(n) == user_type && g.OutDegree(n) > 0) {
      users.push_back(n);
    }
  }
  Result<std::vector<eval::Scenario>> scenarios = eval::GenerateScenarios(
      g, users, opts,
      static_cast<size_t>(parser.GetInt("top").ValueOrDie()),
      static_cast<size_t>(parser.GetInt("per-user").ValueOrDie()));
  if (!scenarios.ok()) return Fail(scenarios.status());
  std::printf("%zu users, %zu scenarios\n", users.size(), scenarios->size());

  eval::RunnerOptions run_opts;
  run_opts.num_threads =
      static_cast<size_t>(parser.GetInt("threads").ValueOrDie());
  run_opts.progress_every = 10;
  ObsSession obs(parser);
  if (!obs.init_status().ok()) return Fail(obs.init_status());
  opts.query_log = obs.query_log();
  Result<eval::ExperimentResult> result = eval::RunExperiment(
      g, scenarios.value(), eval::PaperMethods(), opts, run_opts);
  if (!result.ok()) return Fail(result.status());

  std::vector<std::string> names;
  for (const auto& m : eval::PaperMethods()) names.push_back(m.name);
  auto aggregates = eval::Aggregate(result.value(), names);
  std::printf("%s\n%s\n%s\n", eval::FormatFigure4(aggregates).c_str(),
              eval::FormatFigure6(aggregates).c_str(),
              eval::FormatTable5(aggregates).c_str());

  std::string out = parser.GetString("out").ValueOrDie();
  if (!out.empty()) {
    st = eval::WriteRecordsCsv(result.value(), out);
    if (!st.ok()) return Fail(st);
    std::printf("records -> %s\n", out.c_str());
  }
  return obs.Finish(0);
}

int RunSelfCheck(const std::vector<std::string>& args) {
  FlagParser parser("emigre selfcheck — run the invariant validators");
  parser.AddFlag("graph", "graph file or CSR snapshot", "");
  parser.AddFlag("level", "off | basic | full", "full");
  parser.AddFlag("samples", "sampled sources/targets per PPR suite", "3");
  parser.AddFlag("edits", "random edge edits exercised", "3");
  parser.AddFlag("seed", "sampling seed", "20240416");
  AddObsFlags(&parser);
  Status st = parser.Parse(args);
  if (!st.ok()) return Fail(st);
  Result<graph::HinGraph> gres =
      LoadHinGraphAny(parser.GetString("graph").ValueOrDie());
  if (!gres.ok()) return Fail(gres.status());
  const graph::HinGraph& g = gres.value();
  Result<explain::EmigreOptions> optsr = QueryOptionsFor(g);
  if (!optsr.ok()) return Fail(optsr.status());
  explain::EmigreOptions opts = std::move(optsr).value();

  check::SelfCheckOptions sc;
  std::string level = parser.GetString("level").ValueOrDie();
  if (!check::CheckLevelFromName(level, &sc.level)) {
    return Fail(Status::InvalidArgument("unknown --level " + level));
  }
  sc.num_samples =
      static_cast<size_t>(parser.GetInt("samples").ValueOrDie());
  sc.num_edits = static_cast<size_t>(parser.GetInt("edits").ValueOrDie());
  sc.seed = static_cast<uint64_t>(parser.GetInt("seed").ValueOrDie());

  ObsSession obs(parser);
  if (!obs.init_status().ok()) return Fail(obs.init_status());
  Result<check::SelfCheckReport> report =
      check::RunSelfCheck(g, opts, sc);
  if (!report.ok()) return Fail(report.status());
  for (const std::string& line : report->lines) {
    std::printf("  %s\n", line.c_str());
  }
  std::printf("selfcheck (%s): %zu check(s), %zu violation(s)\n",
              std::string(check::CheckLevelName(sc.level)).c_str(),
              report->checks_run, report->violations);
  return obs.Finish(report->ok() ? 0 : 1);
}

int RunChaos(const std::vector<std::string>& args) {
  FlagParser parser(
      "emigre chaos — seeded fault-injection soak (docs/robustness.md)");
  parser.AddFlag("seeds", "number of independent fault schedules", "20");
  parser.AddFlag("base-seed", "seed of schedule 0", "20240416");
  parser.AddFlag("queries", "explain queries per schedule", "3");
  parser.AddFlag("users", "synthetic dataset users", "60");
  parser.AddFlag("items", "synthetic dataset items", "400");
  parser.AddFlag("test-threads",
                 "candidate-verification threads during the soak", "2");
  AddObsFlags(&parser);
  Status st = parser.Parse(args);
  if (!st.ok()) return Fail(st);
  if (!fault::kFaultInjectionEnabled) {
    std::fprintf(stderr,
                 "warning: built without -DEMIGRE_FAULT_INJECTION=ON; fault "
                 "sites are compiled out, so this soak exercises only the "
                 "plain pipeline\n");
  }

  // The soak runs on a synthetic graph so it needs no input files.
  data::SyntheticAmazonOptions gen;
  gen.num_users = static_cast<size_t>(parser.GetInt("users").ValueOrDie());
  gen.num_items = static_cast<size_t>(parser.GetInt("items").ValueOrDie());
  gen.seed = static_cast<uint64_t>(parser.GetInt("base-seed").ValueOrDie());
  Result<data::Dataset> ds = data::GenerateSyntheticAmazon(gen);
  if (!ds.ok()) return Fail(ds.status());
  Result<data::AmazonLiteGraph> lite =
      data::BuildAmazonLite(ds.value(), data::AmazonLiteOptions{});
  if (!lite.ok()) return Fail(lite.status());

  explain::EmigreOptions opts;
  opts.rec.item_type = lite->graph.FindNodeType("item");
  for (const char* name : {"rated", "reviewed"}) {
    graph::EdgeTypeId t = lite->graph.FindEdgeType(name);
    if (t != graph::kInvalidEdgeType) opts.allowed_edge_types.push_back(t);
  }
  opts.add_edge_type = lite->graph.FindEdgeType("rated");
  opts.deadline_seconds = 2.0;

  ObsSession obs(parser);
  if (!obs.init_status().ok()) return Fail(obs.init_status());
  opts.query_log = obs.query_log();

  Result<std::vector<eval::Scenario>> scenarios = eval::GenerateScenarios(
      lite->graph, lite->eval_users, opts, /*top_k=*/5, /*max_per_user=*/2);
  if (!scenarios.ok()) return Fail(scenarios.status());

  eval::ChaosOptions chaos_opts;
  chaos_opts.base_seed =
      static_cast<uint64_t>(parser.GetInt("base-seed").ValueOrDie());
  chaos_opts.num_schedules =
      static_cast<size_t>(parser.GetInt("seeds").ValueOrDie());
  chaos_opts.queries_per_schedule =
      static_cast<size_t>(parser.GetInt("queries").ValueOrDie());
  chaos_opts.test_threads =
      static_cast<size_t>(parser.GetInt("test-threads").ValueOrDie());
  Result<eval::ChaosReport> report =
      eval::RunChaosSoak(lite->graph, scenarios.value(), opts, chaos_opts);
  if (!report.ok()) return Fail(report.status());

  std::printf(
      "chaos: %zu schedule(s), %zu query(ies), %zu fault(s) fired, %zu typed "
      "failure(s), %zu degraded, %zu explanation(s) found\n",
      report->schedules_run, report->queries_run, report->faults_fired,
      report->typed_failures, report->degraded_results,
      report->explanations_found);
  for (const std::string& v : report->violations) {
    std::fprintf(stderr, "violation: %s\n", v.c_str());
  }
  if (!report->ok()) {
    std::fprintf(stderr, "chaos soak FAILED: %zu violation(s)\n",
                 report->violations.size());
    return obs.Finish(kExitInternal);
  }
  std::printf("chaos soak passed\n");
  return obs.Finish(0);
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream file(path);
  if (!file.good()) {
    // InvalidArgument (not IOError): a bench file the user pointed at but
    // that cannot be read is a usage error under the exit-code contract.
    return Status::InvalidArgument(StrFormat("cannot read %s", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

int RunPerfGate(const std::vector<std::string>& args) {
  // Exit codes (asserted by tests/cli_smoke_test.sh): 0 within tolerances,
  // 1 regression / out-of-band drift, 2 usage (bad flags, unreadable or
  // mismatched inputs).
  FlagParser parser(
      "emigre perfgate — gate a bench run against its checked-in baseline");
  parser.AddFlag("baseline", "baseline emigre.bench.v1 JSON file", "");
  parser.AddFlag("current", "fresh emigre.bench.v1 JSON file", "");
  parser.AddFlag("config",
                 "emigre.perfgate.v1 tolerance config "
                 "(bench/baselines/perfgate.json)",
                 "");
  parser.AddFlag("counter-tol",
                 "relative tolerance for counts (-1 = config/default)", "-1");
  parser.AddFlag("latency-tol",
                 "relative tolerance for *seconds sums (-1 = config/default)",
                 "-1");
  Status st = parser.Parse(args);
  if (!st.ok()) return Fail(st);
  std::string baseline_path = parser.GetString("baseline").ValueOrDie();
  std::string current_path = parser.GetString("current").ValueOrDie();
  if (baseline_path.empty() || current_path.empty()) {
    return Fail(
        Status::InvalidArgument("--baseline and --current are required"));
  }

  obs::PerfGateOptions opts;
  std::string config_path = parser.GetString("config").ValueOrDie();
  if (!config_path.empty()) {
    Result<std::string> config_text = ReadFileToString(config_path);
    if (!config_text.ok()) return Fail(config_text.status());
    Result<obs::PerfGateOptions> parsed =
        obs::ParsePerfGateConfig(config_text.value());
    if (!parsed.ok()) return Fail(parsed.status());
    opts = std::move(parsed).value();
  }
  double counter_tol = parser.GetDouble("counter-tol").ValueOrDie();
  double latency_tol = parser.GetDouble("latency-tol").ValueOrDie();
  if (counter_tol >= 0.0) opts.counter_tol = counter_tol;
  if (latency_tol >= 0.0) opts.latency_tol = latency_tol;

  Result<std::string> baseline_text = ReadFileToString(baseline_path);
  if (!baseline_text.ok()) return Fail(baseline_text.status());
  Result<std::string> current_text = ReadFileToString(current_path);
  if (!current_text.ok()) return Fail(current_text.status());
  Result<obs::BenchDoc> baseline =
      obs::ParseBenchJson(baseline_text.value());
  if (!baseline.ok()) return Fail(baseline.status());
  Result<obs::BenchDoc> current = obs::ParseBenchJson(current_text.value());
  if (!current.ok()) return Fail(current.status());

  Result<obs::PerfGateReport> report =
      obs::ComparePerf(baseline.value(), current.value(), opts);
  if (!report.ok()) return Fail(report.status());
  std::printf("%s", report->Format().c_str());
  return report->pass ? 0 : kExitInternal;
}

int Main(int argc, char** argv) {
  const std::string usage =
      "usage: emigre <generate|convert|inspect|build-graph|stats|recommend|"
      "explain|experiment|selfcheck|chaos|perfgate> [flags]\n";
  if (argc < 2) {
    std::fprintf(stderr, "%s", usage.c_str());
    return kExitUsage;
  }
  std::string command = argv[1];
  std::vector<std::string> rest;
  for (int i = 2; i < argc; ++i) rest.emplace_back(argv[i]);

  if (command == "generate") return RunGenerate(rest);
  if (command == "convert") return RunConvert(rest);
  if (command == "inspect") return RunInspect(rest);
  if (command == "build-graph") return RunBuildGraph(rest);
  if (command == "stats") return RunStats(rest);
  if (command == "recommend") return RunRecommend(rest);
  if (command == "explain") return RunExplain(rest);
  if (command == "experiment") return RunExperiment(rest);
  if (command == "selfcheck") return RunSelfCheck(rest);
  if (command == "chaos") return RunChaos(rest);
  if (command == "perfgate") return RunPerfGate(rest);
  std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(),
               usage.c_str());
  return kExitUsage;
}

}  // namespace
}  // namespace emigre::cli

int main(int argc, char** argv) { return emigre::cli::Main(argc, argv); }
