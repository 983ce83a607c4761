//===- TraceTest.cpp - Observability-layer unit tests ----------------------------===//
//
// Covers the obs/ subsystem: the golden decision-log format produced by
// the replication passes on hand-built flow graphs (pinned byte-for-byte;
// formatDecision is deterministic by construction), validity of the
// Chrome trace-event JSON export under concurrent recording, and the
// guarantee that a disabled sink changes nothing about the compiled code.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "cfg/FunctionPrinter.h"
#include "obs/Metrics.h"
#include "obs/ScopedTimer.h"
#include "replicate/Replication.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include "PaperTables.h"
#include "TestJson.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <map>
#include <vector>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::obs;
using namespace coderep::rtl;
using coderep::tests::JsonValidator;

namespace {

Operand vr(int N) { return Operand::reg(FirstVirtual + N); }

/// While-loop shape (the paper's Figure 1 situation: an unconditional back
/// jump closing a natural loop): pre, header (test, exit), body (jump
/// back), exit.
std::unique_ptr<Function> whileLoop() {
  auto F = std::make_unique<Function>("w");
  int LH = F->freshLabel(), LB = F->freshLabel(), LE = F->freshLabel();
  BasicBlock *Pre = F->appendBlock();
  Pre->Insns = {Insn::move(Operand::reg(RegFP), Operand::reg(RegSP)),
                Insn::move(vr(0), Operand::imm(0)),
                Insn::move(vr(1), Operand::imm(0))};
  BasicBlock *H = F->appendBlockWithLabel(LH);
  H->Insns = {Insn::compare(vr(0), Operand::imm(10)),
              Insn::condJump(CondCode::Ge, LE)};
  BasicBlock *Body = F->appendBlockWithLabel(LB);
  Body->Insns = {Insn::binary(Opcode::Add, vr(1), vr(1), vr(0)),
                 Insn::binary(Opcode::Add, vr(0), vr(0), Operand::imm(1)),
                 Insn::jump(LH)};
  BasicBlock *Exit = F->appendBlockWithLabel(LE);
  Exit->Insns = {Insn::move(Operand::reg(RegRV), vr(1)),
                 Insn::move(Operand::reg(RegSP), Operand::reg(RegFP)),
                 Insn::ret()};
  F->verify();
  return F;
}

/// Renders every decision in \p Sink as formatDecision lines.
std::vector<std::string> decisionLines(const TraceSink &Sink) {
  std::vector<std::string> Out;
  for (const ReplicationDecision &D : Sink.decisions())
    Out.push_back(formatDecision(D));
  return Out;
}


//===----------------------------------------------------------------------===//
// Golden decision logs
//===----------------------------------------------------------------------===//

TEST(DecisionLogTest, GoldenWhileLoopJumps) {
  auto F = whileLoop();
  TraceSink Sink;
  replicate::ReplicationOptions Options;
  Options.Trace.Sink = &Sink;
  replicate::ReplicationStats Stats;
  EXPECT_TRUE(replicate::runJumps(*F, Options, &Stats));
  EXPECT_EQ(Stats.JumpsReplaced, 1);

  // The back jump L1->L0 is replaced by a copy of the 2-RTL header with
  // the test reversed; the "favoring loops" candidate (link to the
  // positionally next block) wins over the return-terminated sequence on
  // cost. Byte-for-byte golden: the format is deterministic and carries
  // no timestamps.
  EXPECT_EQ(decisionLines(Sink),
            (std::vector<std::string>{
                "decision#0 fn=w round=1 jump=L1->L0 outcome=replaced "
                "chosen=loop loops=0 retargets=0 stubs=0 rtls=2 "
                "candidates=[loop cost=2 path=L0 fate=applied; "
                "return cost=5 path=L0,L2 fate=not-tried]"}));
}

TEST(DecisionLogTest, GoldenFigure2StepFiveRetargets) {
  auto F = bench::buildFigure2();
  TraceSink Sink;
  replicate::ReplicationOptions Options;
  Options.Trace.Sink = &Sink;
  replicate::ReplicationStats Stats;
  EXPECT_TRUE(replicate::runJumps(*F, Options, &Stats));

  // The outer back jump (printed L2->L0: labels are 0-based) replicates
  // the shared header, and one branch into the partial copy is retargeted
  // by step 5.
  EXPECT_EQ(decisionLines(Sink),
            (std::vector<std::string>{
                "decision#0 fn=fig2 round=1 jump=L2->L0 outcome=replaced "
                "chosen=loop loops=0 retargets=1 stubs=0 rtls=3 "
                "candidates=[loop cost=3 path=L0 fate=applied; "
                "return cost=6 path=L0,L3 fate=not-tried]"}));
  EXPECT_EQ(Stats.Step5Retargets, 1);
}

TEST(DecisionLogTest, GoldenWhileLoopLoops) {
  auto F = whileLoop();
  TraceSink Sink;
  replicate::ReplicationOptions Options;
  Options.Trace.Sink = &Sink;
  replicate::ReplicationStats Stats;
  EXPECT_TRUE(replicate::runLoops(*F, Options, &Stats));
  EXPECT_EQ(Stats.JumpsReplaced, 1);

  // LOOPS considers exactly one candidate: the loop's termination test.
  EXPECT_EQ(decisionLines(Sink),
            (std::vector<std::string>{
                "decision#0 fn=w round=1 jump=L1->L0 outcome=replaced "
                "chosen=loop loops=0 retargets=0 stubs=0 rtls=2 "
                "candidates=[loop cost=2 path=L0 fate=applied]"}));
}

TEST(DecisionLogTest, DecisionIdsAreDense) {
  auto F = bench::buildFigure2();
  TraceSink Sink;
  replicate::ReplicationOptions Options;
  Options.Trace.Sink = &Sink;
  replicate::runJumps(*F, Options);
  auto G = whileLoop();
  replicate::runJumps(*G, Options);

  std::vector<ReplicationDecision> Ds = Sink.decisions();
  ASSERT_FALSE(Ds.empty());
  for (size_t I = 0; I < Ds.size(); ++I)
    EXPECT_EQ(Ds[I].Id, I);
}

TEST(DecisionLogTest, DisabledSinkProducesIdenticalCode) {
  auto Traced = whileLoop();
  auto Plain = Traced->clone();
  TraceSink Sink;
  replicate::ReplicationOptions Options;
  Options.Trace.Sink = &Sink;
  replicate::runJumps(*Traced, Options);
  replicate::runJumps(*Plain); // default options: tracing disabled
  EXPECT_EQ(toString(*Traced), toString(*Plain));

  auto Traced2 = bench::buildFigure2();
  auto Plain2 = Traced2->clone();
  replicate::runJumps(*Traced2, Options);
  replicate::runJumps(*Plain2);
  EXPECT_EQ(toString(*Traced2), toString(*Plain2));
}

//===----------------------------------------------------------------------===//
// Chrome-trace export
//===----------------------------------------------------------------------===//

TEST(ChromeTraceTest, ExportIsValidJson) {
  auto F = bench::buildFigure2();
  TraceSink Sink;
  replicate::ReplicationOptions Options;
  Options.Trace.Sink = &Sink;
  replicate::runJumps(*F, Options);
  Sink.instant("checkpoint", "\"note\": \"quotes \\\" and \\\\ survive\"");
  Sink.counter("blocks", F->size());

  std::string Json = Sink.chromeTraceJson();
  EXPECT_TRUE(JsonValidator(Json).validate()) << Json;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"thread_name\""), std::string::npos);
}

TEST(ChromeTraceTest, EscapeJsonHandlesSpecials) {
  EXPECT_EQ(escapeJson("plain"), "plain");
  EXPECT_EQ(escapeJson("a\"b"), "a\\\"b");
  EXPECT_EQ(escapeJson("a\\b"), "a\\\\b");
  EXPECT_EQ(escapeJson("a\nb"), "a\\nb");
  EXPECT_EQ(escapeJson(std::string("a\x01z")), "a\\u0001z");
}

TEST(ChromeTraceTest, BalancedSpansUnderThreadPoolConcurrency) {
  TraceSink Sink;
  constexpr unsigned Threads = 8;
  constexpr size_t Tasks = 64;
  ThreadPool Pool(Threads);
  Pool.parallelFor(Tasks, [&](size_t I) {
    ScopedTimer Outer(&Sink, format("task %zu", I),
                      nullptr, format("\"task\": %zu", I));
    for (int J = 0; J < 3; ++J) {
      ScopedTimer Inner(&Sink, "inner");
      Sink.instant("tick");
    }
    Sink.metrics().add("tasks.done", 1);
  });

  // Per thread track, begins and ends must pair up LIFO.
  std::map<uint32_t, std::vector<std::string>> Stacks;
  int Begins = 0, Ends = 0;
  for (const TraceEvent &E : Sink.events()) {
    auto &Stack = Stacks[E.Tid];
    switch (E.Phase) {
    case EventPhase::Begin:
      ++Begins;
      Stack.push_back(E.Name);
      break;
    case EventPhase::End:
      ++Ends;
      ASSERT_FALSE(Stack.empty());
      EXPECT_EQ(Stack.back(), E.Name);
      Stack.pop_back();
      break;
    default:
      break;
    }
  }
  for (const auto &[Tid, Stack] : Stacks)
    EXPECT_TRUE(Stack.empty()) << "unbalanced spans on tid " << Tid;
  EXPECT_EQ(Begins, Ends);
  EXPECT_EQ(Begins, static_cast<int>(Tasks * 4)); // 1 outer + 3 inner each
  EXPECT_EQ(Sink.metrics().value("tasks.done"),
            static_cast<int64_t>(Tasks));

  std::string Json = Sink.chromeTraceJson();
  EXPECT_TRUE(JsonValidator(Json).validate());
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(MetricsTest, AddSetSnapshotAndJson) {
  MetricsRegistry M;
  M.add("b.count", 2);
  M.add("b.count", 3);
  M.set("a.gauge", -7);
  EXPECT_EQ(M.value("b.count"), 5);
  EXPECT_EQ(M.value("a.gauge"), -7);
  EXPECT_EQ(M.value("absent"), 0);

  TraceSink Sink;
  Sink.metrics().add("z.last", 1);
  Sink.metrics().add("a.first", 2);
  std::string Json = Sink.metricsJson();
  EXPECT_TRUE(JsonValidator(Json).validate()) << Json;
  // Keys export in sorted order, so the output is diffable.
  EXPECT_LT(Json.find("a.first"), Json.find("z.last"));
}

TEST(MetricsTest, TypedEntriesCarryUnitAndType) {
  TraceSink Sink;
  Sink.metrics().add("driver.functions", 3);       // counter, unitless
  Sink.metrics().add("pipeline.fixpoint_us.x", 9); // counter, microseconds
  Sink.metrics().set("arena.pool_bytes", 128);     // gauge, bytes
  Sink.histograms().record("fn.compile_us", 100);
  Sink.histograms().record("fn.compile_us", 300);

  std::string Json = Sink.metricsJson();
  EXPECT_TRUE(JsonValidator(Json).validate()) << Json;
  // Flat entries: value plus machine-readable type and unit.
  EXPECT_NE(Json.find("\"driver.functions\": {\"value\": 3, "
                      "\"type\": \"counter\", \"unit\": \"count\"}"),
            std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"pipeline.fixpoint_us.x\": {\"value\": 9, "
                      "\"type\": \"counter\", \"unit\": \"us\"}"),
            std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"arena.pool_bytes\": {\"value\": 128, "
                      "\"type\": \"gauge\", \"unit\": \"bytes\"}"),
            std::string::npos)
      << Json;
  // Histogram entries interleave into the same sorted map with quantiles.
  EXPECT_NE(Json.find("\"fn.compile_us\": {\"type\": \"histogram\", "
                      "\"unit\": \"us\", \"count\": 2"),
            std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"p99\""), std::string::npos);
  // Sorted keys: histogram and flat entries share one ordering.
  EXPECT_LT(Json.find("arena.pool_bytes"), Json.find("driver.functions"));
  EXPECT_LT(Json.find("driver.functions"), Json.find("fn.compile_us"));
}

TEST(MetricsTest, EventsDisabledKeepsMetricsAndHistogramsLive) {
  TraceSink Sink;
  Sink.setEventsEnabled(false);
  {
    ScopedTimer T(&Sink, "muted span");
    Sink.instant("muted instant");
    Sink.counter("muted counter", 1);
  }
  Sink.metrics().add("still.counted", 1);
  Sink.histograms().record("still.recorded_us", 5);
  EXPECT_TRUE(Sink.events().empty());
  EXPECT_EQ(Sink.metrics().value("still.counted"), 1);
  EXPECT_EQ(Sink.histograms().get("still.recorded_us").count(), 1);
}

TEST(MetricsTest, ScopedTimerAccumulatesWithoutSink) {
  int64_t Us = 0;
  {
    ScopedTimer T(nullptr, "unused", &Us);
    volatile int64_t Spin = 0;
    for (int I = 0; I < 100000; ++I)
      Spin = Spin + I;
    (void)Spin;
  }
  EXPECT_GE(Us, 0);
}

} // namespace
