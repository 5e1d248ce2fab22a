#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli.h"
#include "layout/layout.h"

namespace opckit::cli {
namespace {

/// Write a small test library to a temp GDSII file and return its path.
std::string make_test_gds(const std::string& name) {
  layout::Library lib("cli_test");
  layout::Cell& leaf = lib.cell("leaf");
  leaf.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 2000));
  leaf.add_rect(layout::layers::kPoly, geom::Rect(540, 0, 720, 2000));
  layout::make_chip(lib, "top", "leaf", 2, 2, {1400, 2600});
  const std::string path = ::testing::TempDir() + "/" + name;
  layout::write_gdsii_file(lib, path);
  return path;
}

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run_cli(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run(args, out, err);
  return {code, out.str(), err.str()};
}

TEST(Cli, NoArgsShowsUsage) {
  const auto r = run_cli({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandRejected) {
  const auto r = run_cli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, MissingRequiredOptionRejected) {
  const auto r = run_cli({"stats"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--in"), std::string::npos);
}

TEST(Cli, MissingFileIsRuntimeError) {
  const auto r = run_cli({"stats", "--in", "/nonexistent/file.gds"});
  EXPECT_EQ(r.code, 2);  // InputError -> usage-class failure
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(Cli, StatsReportsHierarchy) {
  const std::string gds = make_test_gds("cli_stats.gds");
  const auto r = run_cli({"stats", "--in", gds});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("distinct_cells"), std::string::npos);
  EXPECT_NE(r.out.find("top_cell"), std::string::npos);
  EXPECT_NE(r.out.find("top"), std::string::npos);
  std::remove(gds.c_str());
}

TEST(Cli, DrcCleanLayerReturnsZero) {
  const std::string gds = make_test_gds("cli_drc.gds");
  const auto r = run_cli({"drc", "--in", gds, "--layer", "10/0",
                          "--min-width", "100", "--min-space", "100"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("width.100"), std::string::npos);
  std::remove(gds.c_str());
}

TEST(Cli, DrcViolationsReturnNonZero) {
  const std::string gds = make_test_gds("cli_drc2.gds");
  const auto r = run_cli({"drc", "--in", gds, "--layer", "10/0",
                          "--min-width", "300"});
  EXPECT_EQ(r.code, 1);  // 180nm lines violate min width 300
  EXPECT_NE(r.out.find("width.300"), std::string::npos);
  std::remove(gds.c_str());
}

TEST(Cli, DrcWithoutRulesRejected) {
  const std::string gds = make_test_gds("cli_drc3.gds");
  const auto r = run_cli({"drc", "--in", gds, "--layer", "10/0"});
  EXPECT_EQ(r.code, 2);
  std::remove(gds.c_str());
}

TEST(Cli, BadLayerSpecRejected) {
  const std::string gds = make_test_gds("cli_layer.gds");
  const auto r = run_cli({"drc", "--in", gds, "--layer", "banana",
                          "--min-width", "10"});
  EXPECT_EQ(r.code, 2);
  std::remove(gds.c_str());
}

TEST(Cli, PatternsSummarizesCatalog) {
  const std::string gds = make_test_gds("cli_pat.gds");
  const auto r = run_cli({"patterns", "--in", gds, "--layer", "10/0",
                          "--radius", "300", "--top", "5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("classes over"), std::string::npos);
  std::remove(gds.c_str());
}

TEST(Cli, RuleOpcRoundTrip) {
  const std::string in = make_test_gds("cli_opc_in.gds");
  const std::string out_path = ::testing::TempDir() + "/cli_opc_out.gds";
  const auto r = run_cli({"opc", "--in", in, "--out", out_path, "--layer",
                          "10/0", "--mode", "rule"});
  EXPECT_EQ(r.code, 0) << r.err;
  // Output file exists and carries shapes on datatype 1.
  const layout::Library lib = layout::read_gdsii_file(out_path);
  const auto corrected =
      lib.flatten("top", layout::Layer{10, 1});
  EXPECT_FALSE(corrected.empty());
  std::remove(in.c_str());
  std::remove(out_path.c_str());
}

TEST(Cli, ModelOpcRoundTrip) {
  // Single small cell so the model run stays quick.
  layout::Library lib("cli_model");
  lib.cell("only").add_rect(layout::layers::kPoly,
                            geom::Rect(0, 0, 180, 1500));
  const std::string in = ::testing::TempDir() + "/cli_model_in.gds";
  layout::write_gdsii_file(lib, in);
  const std::string out_path = ::testing::TempDir() + "/cli_model_out.gds";
  const auto r = run_cli({"opc", "--in", in, "--out", out_path, "--layer",
                          "10/0", "--mode", "model", "--srafs"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("model OPC"), std::string::npos);
  EXPECT_NE(r.out.find("SRAF"), std::string::npos);
  const layout::Library back = layout::read_gdsii_file(out_path);
  EXPECT_FALSE(back.flatten("only", layout::Layer{10, 1}).empty());
  std::remove(in.c_str());
  std::remove(out_path.c_str());
}

TEST(Cli, FlatFlowOpcRoundTrip) {
  // Single small cell so the two-pass flow stays quick.
  layout::Library lib("cli_flow");
  lib.cell("only").add_rect(layout::layers::kPoly,
                            geom::Rect(0, 0, 180, 1500));
  const std::string in = ::testing::TempDir() + "/cli_flow_in.gds";
  layout::write_gdsii_file(lib, in);
  const std::string out_path = ::testing::TempDir() + "/cli_flow_out.gds";
  const auto r = run_cli({"opc", "--in", in, "--out", out_path, "--layer",
                          "10/0", "--flow", "flat", "--jobs", "2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("flat flow:"), std::string::npos);
  EXPECT_NE(r.out.find("cache:"), std::string::npos);
  EXPECT_NE(r.out.find("wall clock:"), std::string::npos);
  const layout::Library back = layout::read_gdsii_file(out_path);
  EXPECT_FALSE(back.flatten("only", layout::Layer{10, 1}).empty());
  std::remove(in.c_str());
  std::remove(out_path.c_str());
}

TEST(Cli, FlowStoreResumeAndJsonStats) {
  layout::Library lib("cli_store");
  lib.cell("only").add_rect(layout::layers::kPoly,
                            geom::Rect(0, 0, 180, 1500));
  const std::string in = ::testing::TempDir() + "/cli_store_in.gds";
  layout::write_gdsii_file(lib, in);
  const std::string out_path = ::testing::TempDir() + "/cli_store_out.gds";
  const std::string library = ::testing::TempDir() + "/cli_store.ocl";
  const std::string stats_path = ::testing::TempDir() + "/cli_store.json";
  std::remove(library.c_str());

  // Cold run writes the library; --stats json replaces the text report.
  const auto cold = run_cli({"opc", "--in", in, "--out", out_path,
                             "--layer", "10/0", "--flow", "flat",
                             "--library", library, "--stats", "json"});
  EXPECT_EQ(cold.code, 0) << cold.err;
  EXPECT_EQ(cold.out.rfind("{\"opc_runs\":", 0), 0u) << cold.out;
  EXPECT_NE(cold.out.find("\"library\":{\"exact_hits\":0,\"near_hits\":0,"
                          "\"entries_loaded\":0,\"entries_appended\":1,"),
            std::string::npos)
      << cold.out;

  // A rerun over the library replays everything; --stats-out writes the
  // same JSON to disk.
  const auto warm = run_cli({"opc", "--in", in, "--out", out_path,
                             "--layer", "10/0", "--flow", "flat",
                             "--library", library, "--stats-out",
                             stats_path});
  EXPECT_EQ(warm.code, 0) << warm.err;
  EXPECT_NE(warm.out.find("library: 2 exact replay(s)"), std::string::npos)
      << warm.out;
  std::ifstream stats_file(stats_path);
  std::string json((std::istreambuf_iterator<char>(stats_file)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(json.rfind("{\"opc_runs\":0,", 0), 0u) << json;
  EXPECT_NE(json.find("\"entries_appended\":0"), std::string::npos) << json;

  std::remove(in.c_str());
  std::remove(out_path.c_str());
  std::remove(library.c_str());
  std::remove(stats_path.c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(Cli, LibraryRenameStillReplays) {
  // A library's path is not part of the flow identity: renamed, or
  // spelled with a ./ prefix, it still replays its records.
  layout::Library lib("cli_rename");
  lib.cell("only").add_rect(layout::layers::kPoly,
                            geom::Rect(0, 0, 180, 1500));
  const std::string dir = ::testing::TempDir();
  const std::string in = dir + "/cli_rename_in.gds";
  layout::write_gdsii_file(lib, in);
  const std::string a = dir + "/cli_rename_a.ocl";
  const std::string b = dir + "/cli_rename_b.ocl";
  std::remove(a.c_str());
  std::remove(b.c_str());
  const auto opc = [&in](const std::string& library, const std::string& out) {
    return run_cli({"opc", "--in", in, "--out", out, "--layer", "10/0",
                    "--flow", "cell", "--library", library});
  };

  const std::string first_out = dir + "/cli_rename_first.gds";
  const auto first = opc(a, first_out);
  ASSERT_EQ(first.code, 0) << first.err;
  ASSERT_NE(first.out.find("library: 0 exact replay(s)"), std::string::npos)
      << first.out;
  // The file is byte for byte the one this command wrote before the
  // reuse layers were merged into one format (tests/data).
  const std::string fixture =
      read_file(std::string(OPCKIT_TEST_DATA_DIR) + "/cli_cell_library.ocl");
  EXPECT_EQ(read_file(a), fixture);
  ASSERT_EQ(std::rename(a.c_str(), b.c_str()), 0);

  const std::string out = dir + "/cli_rename_again.gds";
  for (const std::string& spelled :
       {b, "./" + std::filesystem::relative(b).string()}) {
    std::remove(out.c_str());
    const auto r = opc(spelled, out);
    EXPECT_EQ(r.code, 0) << spelled << ": " << r.err;
    EXPECT_NE(r.out.find("library: 1 exact replay(s)"), std::string::npos)
        << spelled << ": " << r.out;
    EXPECT_EQ(read_file(out), read_file(first_out)) << spelled;
  }
  EXPECT_EQ(read_file(b), fixture);  // replays append nothing
  for (const std::string& path : {in, b, first_out, out}) {
    std::remove(path.c_str());
  }
}

TEST(Cli, FlowTraceWritesChromeTraceJson) {
  layout::Library lib("cli_trace");
  lib.cell("only").add_rect(layout::layers::kPoly,
                            geom::Rect(0, 0, 180, 1500));
  const std::string in = ::testing::TempDir() + "/cli_trace_in.gds";
  layout::write_gdsii_file(lib, in);
  const std::string out_path = ::testing::TempDir() + "/cli_trace_out.gds";
  const std::string trace_path = ::testing::TempDir() + "/cli_trace.json";

  const auto r = run_cli({"opc", "--in", in, "--out", out_path, "--layer",
                          "10/0", "--flow", "flat", "--jobs", "2",
                          "--trace", trace_path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("wrote trace to"), std::string::npos) << r.out;

  std::ifstream trace_file(trace_path);
  std::string json((std::istreambuf_iterator<char>(trace_file)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 60);
  EXPECT_NE(json.find("\"name\":\"flow.flat\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"flow.solve.tile\""), std::string::npos);

  std::remove(in.c_str());
  std::remove(out_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(Cli, StatsJsonEmbedsTheMetricsSnapshot) {
  layout::Library lib("cli_metrics");
  lib.cell("only").add_rect(layout::layers::kPoly,
                            geom::Rect(0, 0, 180, 1500));
  const std::string in = ::testing::TempDir() + "/cli_metrics_in.gds";
  layout::write_gdsii_file(lib, in);
  const std::string out_path =
      ::testing::TempDir() + "/cli_metrics_out.gds";

  const auto r = run_cli({"opc", "--in", in, "--out", out_path, "--layer",
                          "10/0", "--flow", "flat", "--stats", "json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"metrics\":{\"counters\":{"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("\"litho.fft2d_transforms\":"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("\"flow.phase.solve_ms\":"), std::string::npos)
      << r.out;

  std::remove(in.c_str());
  std::remove(out_path.c_str());
}

TEST(Cli, MetricsCommandListsTheRegistry) {
  const auto text = run_cli({"metrics"});
  EXPECT_EQ(text.code, 0) << text.err;
  EXPECT_NE(text.out.find("flow.tiles_merged"), std::string::npos);
  EXPECT_NE(text.out.find("litho.raster_cells"), std::string::npos);

  const auto md = run_cli({"metrics", "--format", "md"});
  EXPECT_EQ(md.code, 0) << md.err;
  EXPECT_EQ(md.out.rfind("# opckit metric registry", 0), 0u);
  EXPECT_NE(md.out.find("| `store.recovered_tail_bytes` | counter |"),
            std::string::npos);

  const auto bad = run_cli({"metrics", "--format", "yaml"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("--format"), std::string::npos);
}

TEST(Cli, StoreFlagsRequireAFlow) {
  for (const std::vector<std::string>& extra :
       {std::vector<std::string>{"--library", "x.ocl"},
        std::vector<std::string>{"--stats", "json"},
        std::vector<std::string>{"--stats-out", "x.json"},
        std::vector<std::string>{"--trace", "x.json"}}) {
    std::vector<std::string> args{"opc",     "--in",  "x.gds", "--out",
                                  "y.gds",   "--layer", "10/0"};
    args.insert(args.end(), extra.begin(), extra.end());
    const auto r = run_cli(args);
    EXPECT_EQ(r.code, 2) << extra[0];
    EXPECT_NE(r.err.find("--flow flat|cell"), std::string::npos)
        << r.err;
  }
}

TEST(Cli, RetiredStoreFlagsAreRefused) {
  // The correction store's flags are gone (a rerun over --library
  // resumes); a script that still passes them must fail, not silently
  // stop persisting.
  for (const std::vector<std::string>& extra :
       {std::vector<std::string>{"--store", "x.ocs"},
        std::vector<std::string>{"--resume"}}) {
    std::vector<std::string> args{"opc",   "--in",    "x.gds", "--out",
                                  "y.gds", "--layer", "10/0",  "--flow",
                                  "flat"};
    args.insert(args.end(), extra.begin(), extra.end());
    const auto r = run_cli(args);
    EXPECT_EQ(r.code, 2) << extra[0];
    EXPECT_NE(r.err.find("unknown option " + extra[0]), std::string::npos)
        << r.err;
  }
}

TEST(Cli, EveryCommandRefusesUnknownOptions) {
  for (const char* cmd : {"stats", "drc", "mrc", "lint", "opc", "patterns",
                          "metrics", "serve", "submit", "shutdown"}) {
    const auto r = run_cli({cmd, "--bogus-flag"});
    EXPECT_EQ(r.code, 2) << cmd;
    EXPECT_NE(r.err.find("unknown option --bogus-flag"), std::string::npos)
        << cmd << ": " << r.err;
  }
  // An option of one command is no option of another, and two names
  // are not one.
  const auto r = run_cli({"metrics", "--format", "md", "--in", "x.gds"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown option --in"), std::string::npos) << r.err;
  EXPECT_EQ(run_cli({"stats", "--in cell", "x.gds"}).code, 2);
}

/// Run `opc` over a real input with \p extra options; expect exit 2, no
/// output file, and \p message on stderr.
void expect_opc_refuses(const std::vector<std::string>& extra,
                        const std::string& message) {
  const std::string in = make_test_gds("cli_refuse_in.gds");
  const std::string out_path = ::testing::TempDir() + "/cli_refuse_out.gds";
  std::remove(out_path.c_str());
  std::vector<std::string> args{"opc",      "--in",  in,    "--out",
                                out_path,   "--layer", "10/0"};
  args.insert(args.end(), extra.begin(), extra.end());
  const auto r = run_cli(args);
  EXPECT_EQ(r.code, 2) << extra[0];
  EXPECT_NE(r.err.find(message), std::string::npos) << r.err;
  EXPECT_FALSE(std::filesystem::exists(out_path)) << extra[0];
  std::remove(in.c_str());
}

// Each way of running `opc` (direct rule, direct model, the flat/cell
// flows) refuses the options only another way reads, naming the option
// and the ways that take it, instead of running without them.
TEST(Cli, RuleOpcRefusesFlowOptions) {
  expect_opc_refuses({"--mode", "rule", "--jobs", "8", "--no-cache"},
                     "--jobs requires --flow flat|cell");
  expect_opc_refuses({"--mode", "rule", "--no-cache"},
                     "--no-cache requires --flow flat|cell");
}

TEST(Cli, RuleOpcRefusesModelOptions) {
  expect_opc_refuses(
      {"--mode", "rule", "--anchor-cd", "250", "--anchor-pitch", "900"},
      "--anchor-cd requires --flow direct --mode model or --flow flat|cell");
  expect_opc_refuses({"--mode", "rule", "--anchor-pitch", "900"},
                     "--anchor-pitch requires --flow direct --mode model");
}

TEST(Cli, FlowRefusesDirectOptions) {
  expect_opc_refuses(
      {"--flow", "cell", "--srafs", "--deck", "missing.deck"},
      "--deck requires --flow direct --mode rule");
  expect_opc_refuses({"--flow", "cell", "--srafs"},
                     "--srafs requires --flow direct --mode rule or "
                     "--flow direct --mode model");
}

TEST(Cli, ModelOpcRefusesTheRuleDeck) {
  expect_opc_refuses({"--mode", "model", "--deck", "x"},
                     "--deck requires --flow direct --mode rule");
  expect_opc_refuses({"--deck", "x"},
                     "--deck requires --flow direct --mode rule");
}

TEST(Cli, FlowRefusesJobsOutsideTheBound) {
  expect_opc_refuses({"--flow", "flat", "--jobs", "-1"},
                     "jobs -1 is outside [0, 1024]");
  // Past int: refused as given, not narrowed first (2^32 + 1 would wrap
  // to 1 and run).
  expect_opc_refuses({"--flow", "flat", "--jobs", "4294967297"},
                     "jobs 4294967297 is outside [0, 1024]");
}

TEST(Cli, UnknownStatsFormatRejected) {
  const auto r = run_cli({"opc", "--in", "x.gds", "--out", "y.gds",
                          "--layer", "10/0", "--flow", "flat", "--stats",
                          "xml"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--stats"), std::string::npos);
}

TEST(Cli, FlowRequiresModelMode) {
  const auto r = run_cli({"opc", "--in", "x.gds", "--out", "y.gds",
                          "--layer", "10/0", "--mode", "rule", "--flow",
                          "flat"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--mode model"), std::string::npos);
}

TEST(Cli, MrcCleanLayerReturnsZero) {
  const std::string gds = make_test_gds("cli_mrc.gds");
  const auto r = run_cli({"mrc", "--in", gds, "--layer", "10/0",
                          "--min-width", "100", "--min-space", "100"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("mrc.width.100"), std::string::npos);
  EXPECT_NE(r.out.find("MRC001"), std::string::npos);
  std::remove(gds.c_str());
}

TEST(Cli, MrcViolationsReturnOneWithWitnesses) {
  const std::string gds = make_test_gds("cli_mrc2.gds");
  const auto r = run_cli({"mrc", "--in", gds, "--layer", "10/0",
                          "--min-width", "200"});
  EXPECT_EQ(r.code, 1);  // 180nm lines violate min width 200
  EXPECT_NE(r.out.find("mrc.width.200"), std::string::npos);
  EXPECT_NE(r.out.find("measured 180"), std::string::npos) << r.out;
  std::remove(gds.c_str());
}

TEST(Cli, MrcDefaultDeckRunsClean) {
  const std::string gds = make_test_gds("cli_mrc3.gds");
  const auto r = run_cli({"mrc", "--in", gds, "--layer", "10/0",
                          "--deck", "default"});
  EXPECT_EQ(r.code, 0) << r.err << r.out;
  std::remove(gds.c_str());
}

TEST(Cli, MrcWithoutRulesRejected) {
  const std::string gds = make_test_gds("cli_mrc4.gds");
  const auto r = run_cli({"mrc", "--in", gds, "--layer", "10/0"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--min-"), std::string::npos);
  std::remove(gds.c_str());
}

TEST(Cli, FlowMrcGateWarnEmbedsReportInJsonStats) {
  layout::Library lib("cli_mrc_flow");
  lib.cell("only").add_rect(layout::layers::kPoly,
                            geom::Rect(0, 0, 180, 1500));
  const std::string in = ::testing::TempDir() + "/cli_mrc_flow_in.gds";
  layout::write_gdsii_file(lib, in);
  const std::string out_path = ::testing::TempDir() + "/cli_mrc_flow_out.gds";

  // A deck this corrected mask can never meet, downgraded to warn: the
  // run succeeds, the JSON stats carry the violation counts.
  const std::string deck = ::testing::TempDir() + "/cli_mrc_flow.deck";
  std::ofstream(deck) << "width 500\n";
  const auto r = run_cli({"opc", "--in", in, "--out", out_path, "--layer",
                          "10/0", "--flow", "flat", "--mrc-deck", deck,
                          "--mrc-action", "warn", "--stats", "json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"mrc\":{\"checked\":true"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("\"by_rule\":{\"mrc.width.500\":"), std::string::npos)
      << r.out;

  std::remove(in.c_str());
  std::remove(out_path.c_str());
  std::remove(deck.c_str());
}

TEST(Cli, FlowMrcGateFailRejectsButWritesOutput) {
  layout::Library lib("cli_mrc_gate");
  lib.cell("only").add_rect(layout::layers::kPoly,
                            geom::Rect(0, 0, 180, 1500));
  const std::string in = ::testing::TempDir() + "/cli_mrc_gate_in.gds";
  layout::write_gdsii_file(lib, in);
  const std::string out_path = ::testing::TempDir() + "/cli_mrc_gate_out.gds";

  const std::string deck = ::testing::TempDir() + "/cli_mrc_gate.deck";
  std::ofstream(deck) << "width 500\n";
  const auto r = run_cli({"opc", "--in", in, "--out", out_path, "--layer",
                          "10/0", "--flow", "flat", "--mrc-deck", deck});
  EXPECT_EQ(r.code, 1) << r.err;
  EXPECT_NE(r.out.find("MRC001"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("error: MRC signoff"), std::string::npos) << r.out;
  // The rejected mask is still written for inspection.
  const layout::Library back = layout::read_gdsii_file(out_path);
  EXPECT_FALSE(back.flatten("only", layout::Layer{10, 1}).empty());

  std::remove(in.c_str());
  std::remove(out_path.c_str());
  std::remove(deck.c_str());
}

TEST(Cli, MrcFlagsValidated) {
  // --mrc-action needs --mrc-deck.
  const auto r = run_cli({"opc", "--in", "x.gds", "--out", "y.gds",
                          "--layer", "10/0", "--flow", "flat",
                          "--mrc-action", "warn"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--mrc-action requires --mrc-deck"),
            std::string::npos);
  // Unknown action value.
  const auto r2 = run_cli({"opc", "--in", "x.gds", "--out", "y.gds",
                           "--layer", "10/0", "--flow", "flat",
                           "--mrc-deck", "default", "--mrc-action", "x"});
  EXPECT_EQ(r2.code, 2);
  EXPECT_NE(r2.err.find("--mrc-action"), std::string::npos);
  // The gate is a flow feature; the direct path rejects it.
  const auto r3 = run_cli({"opc", "--in", "x.gds", "--out", "y.gds",
                           "--layer", "10/0", "--mode", "model",
                           "--mrc-deck", "default"});
  EXPECT_EQ(r3.code, 2);
  EXPECT_NE(r3.err.find("--flow flat|cell"), std::string::npos);
}

TEST(Cli, SubmitValidatesItsSpecLikeOpc) {
  // submit builds its job spec with the same function as opc, so it
  // refuses the same flags before it looks for a daemon.
  const auto r = run_cli({"submit", "--in", "x.gds", "--out", "y.gds",
                          "--layer", "10/0", "--mrc-action", "warn"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--mrc-action requires --mrc-deck"),
            std::string::npos)
      << r.err;
}

TEST(Cli, SubmitRefusesJobs) {
  // A daemon job runs on one worker of the daemon's pool, so a --jobs
  // of its own could only start idle threads: submit refuses it.
  const auto r = run_cli({"submit", "--in", "x.gds", "--out", "y.gds",
                          "--layer", "10/0", "--jobs", "4"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown option --jobs"), std::string::npos)
      << r.err;
}

TEST(Cli, ServeRefusesJobsOutsideTheBound) {
  // --jobs sizes the daemon's pool, so it is checked before anything
  // else, the transport included: no daemon starts from these.
  for (const std::string jobs : {"-1", "4294967297"}) {
    const auto r = run_cli({"serve", "--jobs", jobs});
    EXPECT_EQ(r.code, 2) << jobs;
    EXPECT_NE(r.err.find("jobs " + jobs + " is outside [0, 1024]"),
              std::string::npos)
        << r.err;
  }
}

TEST(Cli, ServeRefusesMaxQueueBelowOne) {
  // -1 would wrap to an unbounded admission queue and 0 would reject
  // every job. Both are refused before the transport is looked at, so
  // no daemon starts from these.
  for (const std::string queue : {"-1", "0"}) {
    const auto r = run_cli({"serve", "--max-queue", queue});
    EXPECT_EQ(r.code, 2) << queue;
    EXPECT_NE(r.err.find("--max-queue " + queue + " is outside [1, " +
                         std::to_string(std::numeric_limits<long long>::max()) +
                         "]"),
              std::string::npos)
        << r.err;
  }
}

TEST(Cli, TcpPortOutsideTheBoundIsRefused) {
  // 70000 would wrap to port 4464, in serve and in the client commands'
  // connect alike.
  for (const std::string port : {"70000", "-1"}) {
    const std::vector<std::vector<std::string>> commands = {
        {"serve", "--tcp", port},
        {"shutdown", "--tcp", port},
        {"submit", "--tcp", port, "--in", "x.gds", "--out", "y.gds",
         "--layer", "10/0"}};
    for (const std::vector<std::string>& args : commands) {
      const auto r = run_cli(args);
      EXPECT_EQ(r.code, 2) << args[0] << ' ' << port;
      EXPECT_NE(r.err.find("--tcp " + port + " is outside [0, 65535]"),
                std::string::npos)
          << r.err;
    }
  }
}

TEST(Cli, SubmitRefusesPriorityOutsideInt32) {
  // 2^32 + 1 would wrap to priority 1. Refused before any connect.
  for (const std::string priority : {"4294967297", "-2147483649"}) {
    const auto r = run_cli({"submit", "--socket", "/nonexistent/opcd.sock",
                            "--in", "x.gds", "--out", "y.gds", "--layer",
                            "10/0", "--priority", priority});
    EXPECT_EQ(r.code, 2) << priority;
    EXPECT_NE(r.err.find("--priority " + priority +
                         " is outside [-2147483648, 2147483647]"),
              std::string::npos)
        << r.err;
  }
}

TEST(Cli, ServeRefusesMaxInflight) {
  // The daemon runs one job per worker; --jobs sizes the pool.
  const auto r = run_cli({"serve", "--max-inflight", "2"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown option --max-inflight"), std::string::npos)
      << r.err;
}

TEST(Cli, LintCleanLayoutReturnsZero) {
  const std::string gds = make_test_gds("cli_lint_clean.gds");
  const auto r = run_cli({"lint", "--in", gds});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("0 finding(s)"), std::string::npos);
  std::remove(gds.c_str());
}

TEST(Cli, LintDirtyLayoutReturnsOneWithCodes) {
  layout::Library lib("dirty");
  lib.cell("bow").add_polygon(
      layout::layers::kPoly,
      geom::Polygon({{0, 0}, {400, 400}, {400, 0}, {0, 400}}));
  layout::CellRef orphan_ref;
  orphan_ref.child = "ghost";
  lib.cell("orphan").add_ref(orphan_ref);
  const std::string gds = ::testing::TempDir() + "/cli_lint_dirty.gds";
  layout::write_gdsii_file(lib, gds);
  const auto r = run_cli({"lint", "--in", gds});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("LAY001"), std::string::npos);
  EXPECT_NE(r.out.find("HIE001"), std::string::npos);
  std::remove(gds.c_str());
}

TEST(Cli, LintCsvFormatIsMachineReadable) {
  layout::Library lib("dirty_csv");
  lib.cell("bow").add_polygon(
      layout::layers::kPoly,
      geom::Polygon({{0, 0}, {400, 400}, {400, 0}, {0, 400}}));
  const std::string gds = ::testing::TempDir() + "/cli_lint_csv.gds";
  layout::write_gdsii_file(lib, gds);
  const auto r = run_cli({"lint", "--in", gds, "--format", "csv"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("code,severity"), std::string::npos);
  EXPECT_NE(r.out.find("LAY001,error"), std::string::npos);
  std::remove(gds.c_str());
}

TEST(Cli, LintCodesListsTheRegistry) {
  const auto r = run_cli({"lint", "--codes"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("LAY001"), std::string::npos);
  EXPECT_NE(r.out.find("RUL004"), std::string::npos);
  EXPECT_NE(r.out.find("MOD007"), std::string::npos);
}

TEST(Cli, LintCodesMarkdownRendersTheRegistry) {
  const auto r = run_cli({"lint", "--codes", "--format", "md"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.rfind("# opclint diagnostic codes", 0), 0u);
  EXPECT_NE(r.out.find("| LAY001 | error |"), std::string::npos);
  EXPECT_NE(r.out.find("| MOD007 | error |"), std::string::npos);
  EXPECT_NE(r.out.find("Remedy"), std::string::npos);
}

TEST(Cli, LintModelFlagsBadOptics) {
  const auto clean = run_cli({"lint", "--model"});
  EXPECT_EQ(clean.code, 0) << clean.err;
  const auto bad = run_cli({"lint", "--model", "--na", "1.5"});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.out.find("MOD001"), std::string::npos);
}

TEST(Cli, BadNumericOptionRejectedWithFlagName) {
  const auto r = run_cli({"lint", "--model", "--na", "abc"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--na"), std::string::npos);
  const auto r2 = run_cli({"lint", "--model", "--pixel", "12xyz"});
  EXPECT_EQ(r2.code, 2);
  EXPECT_NE(r2.err.find("--pixel"), std::string::npos);
}

TEST(Cli, OpcRefusesLintDirtyInput) {
  layout::Library lib("dirty_opc");
  lib.cell("bow").add_polygon(
      layout::layers::kPoly,
      geom::Polygon({{0, 0}, {400, 400}, {400, 0}, {0, 400}}));
  const std::string in = ::testing::TempDir() + "/cli_opc_dirty.gds";
  layout::write_gdsii_file(lib, in);
  const std::string out_path = ::testing::TempDir() + "/cli_opc_dirty_out.gds";
  const auto r = run_cli({"opc", "--in", in, "--out", out_path, "--layer",
                          "10/0", "--mode", "model"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("pre-flight"), std::string::npos);
  EXPECT_NE(r.err.find("LAY001"), std::string::npos);
  std::remove(in.c_str());
}

TEST(Cli, LintWithoutScopeRejected) {
  const auto r = run_cli({"lint"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--in"), std::string::npos);
}

TEST(Cli, AmbiguousTopCellNeedsCellOption) {
  layout::Library lib("two_tops");
  lib.cell("a").add_rect(layout::layers::kPoly, geom::Rect(0, 0, 10, 10));
  lib.cell("b").add_rect(layout::layers::kPoly, geom::Rect(0, 0, 10, 10));
  const std::string path = ::testing::TempDir() + "/cli_two_tops.gds";
  layout::write_gdsii_file(lib, path);
  const auto r = run_cli({"stats", "--in", path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--cell"), std::string::npos);
  const auto r2 = run_cli({"stats", "--in", path, "--cell", "a"});
  EXPECT_EQ(r2.code, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace opckit::cli
