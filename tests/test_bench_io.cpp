// ISCAS-89 .bench reader/writer.

#include <gtest/gtest.h>

#include "bench_data/s27.h"
#include "circuit/bench_io.h"

namespace motsim {
namespace {

TEST(BenchIo, ParsesS27) {
  const Netlist nl = parse_bench_string(s27_bench_text(), "s27");
  EXPECT_EQ(nl.input_count(), 4u);
  EXPECT_EQ(nl.output_count(), 1u);
  EXPECT_EQ(nl.dff_count(), 3u);
  EXPECT_EQ(nl.gate_count(), 10u);
  EXPECT_EQ(nl.gate(nl.find("G9")).type, GateType::Nand);
  EXPECT_EQ(nl.gate(nl.find("G10")).type, GateType::Nor);
}

TEST(BenchIo, RoundTripPreservesStructure) {
  const Netlist original = parse_bench_string(s27_bench_text(), "s27");
  const std::string text = write_bench_string(original);
  const Netlist reparsed = parse_bench_string(text, "s27rt");

  EXPECT_EQ(reparsed.input_count(), original.input_count());
  EXPECT_EQ(reparsed.output_count(), original.output_count());
  EXPECT_EQ(reparsed.dff_count(), original.dff_count());
  EXPECT_EQ(reparsed.node_count(), original.node_count());
  for (NodeIndex n = 0; n < original.node_count(); ++n) {
    const Gate& g = original.gate(n);
    const NodeIndex rn = reparsed.find(g.name);
    ASSERT_NE(rn, kNoNode) << g.name;
    EXPECT_EQ(reparsed.gate(rn).type, g.type);
    EXPECT_EQ(reparsed.gate(rn).fanins.size(), g.fanins.size());
  }
}

TEST(BenchIo, HandlesForwardReferences) {
  // q's D input is defined after q itself — the sequential idiom.
  const Netlist nl = parse_bench_string(
      "INPUT(a)\nOUTPUT(o)\nq = DFF(o)\no = AND(a, q)\n", "fwd");
  EXPECT_EQ(nl.dff_count(), 1u);
  EXPECT_EQ(nl.gate(nl.find("q")).fanins[0], nl.find("o"));
}

TEST(BenchIo, IgnoresCommentsAndBlankLines) {
  const Netlist nl = parse_bench_string(
      "# a comment\n\nINPUT(a)\n  # indented comment\nOUTPUT(o)\n"
      "o = NOT(a)\n",
      "c");
  EXPECT_EQ(nl.node_count(), 2u);
}

TEST(BenchIo, AcceptsCaseInsensitiveKeywordsAndBuffAlias) {
  const Netlist nl = parse_bench_string(
      "INPUT(a)\nOUTPUT(o)\nb = buff(a)\no = nand(a, b)\n", "ci");
  EXPECT_EQ(nl.gate(nl.find("b")).type, GateType::Buf);
  EXPECT_EQ(nl.gate(nl.find("o")).type, GateType::Nand);
}

TEST(BenchIo, ErrorsCarryLineNumbers) {
  try {
    (void)parse_bench_string("INPUT(a)\nOUTPUT(o)\no = FROB(a)\n", "bad");
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(BenchIo, RejectsUndefinedSignals) {
  EXPECT_THROW((void)parse_bench_string(
                   "INPUT(a)\nOUTPUT(o)\no = AND(a, ghost)\n", "bad"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)parse_bench_string("INPUT(a)\nOUTPUT(ghost)\nb = NOT(a)\n",
                               "bad"),
      std::invalid_argument);
}

TEST(BenchIo, RejectsDuplicateDefinitions) {
  EXPECT_THROW((void)parse_bench_string(
                   "INPUT(a)\nOUTPUT(o)\no = NOT(a)\no = BUF(a)\n", "bad"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_bench_string("INPUT(a)\nINPUT(a)\n", "bad"),
               std::invalid_argument);
}

TEST(BenchIo, RejectsMalformedLines) {
  EXPECT_THROW((void)parse_bench_string("INPUT a\n", "bad"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_bench_string("o = AND a, b\n", "bad"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_bench_string("just some words\n", "bad"),
               std::invalid_argument);
}

TEST(BenchIo, WriterEmitsParsableConstGates) {
  Netlist nl("consts");
  const NodeIndex c0 = nl.add_gate(GateType::Const0, {}, "zero");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex g = nl.add_gate(GateType::Or, {a, c0}, "g");
  nl.mark_output(g);
  nl.finalize();
  const Netlist reparsed =
      parse_bench_string(write_bench_string(nl), "consts2");
  EXPECT_EQ(reparsed.gate(reparsed.find("zero")).type, GateType::Const0);
}

}  // namespace
}  // namespace motsim
