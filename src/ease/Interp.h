//===- Interp.h - RTL interpreter with EASE-style measurement ---*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a compiled Program directly at the RTL level and collects the
/// paper's dynamic measurements: executed instruction counts, unconditional
/// jump counts, branch distances, and a per-fetch address stream for the
/// instruction-cache simulation. This substitutes for EASE (Davidson &
/// Whalley 1990), which obtained the same numbers by instrumenting real
/// generated code.
///
/// Execution model:
///  * Words are 32-bit little-endian; byte loads sign-extend. ALU,
///    compare and branch semantics, and the two arithmetic traps, come
///    from rtl/Eval.h, which the constant folders share.
///  * Each function invocation has a private register file (the SPARC
///    register-window idealization); RegSP flows into a call and RegRV
///    flows back out.
///  * Library routines are interpreter intrinsics and are *not* measured,
///    matching the paper ("library routines could not be measured").
///
/// Execution is split in two. An Image lowers a program once into one flat
/// array of decoded ops - the single-instruction-sequence view of Bergstra
/// & Middelburg: branch targets are op indices, every block ends in an
/// explicit fall-through step, registers are frame slots, and every op
/// carries its fetch address (4 bytes per RTL, functions and blocks in
/// positional order, a delay slot right after its transfer). A Machine
/// executes images; it keeps its data memory and register stack between
/// runs and clears only what the previous run wrote.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_EASE_INTERP_H
#define CODEREP_EASE_INTERP_H

#include "cfg/Function.h"
#include "rtl/Eval.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace coderep::ease {

/// Receives the address of every fetched (executed) instruction.
class FetchSink {
public:
  virtual ~FetchSink();
  virtual void fetch(uint32_t Addr) = 0;
};

/// Interpreter configuration.
struct RunOptions {
  uint32_t MemBytes = 1u << 22;       ///< data memory size
  uint64_t MaxSteps = 1ull << 32;     ///< runaway guard
  std::string Input;                  ///< bytes returned by getchar()
  FetchSink *Sink = nullptr;          ///< optional fetch-address consumer

  /// Function-entry mode, used by the translation-validation oracle
  /// (verify::Oracle) to execute a single function in isolation: when
  /// >= 0, execution starts at this function index instead of "main",
  /// EntryArgs are stored at [SP + 4*i] (the stack argument convention of
  /// frontend::CodeGen), and the entry function's return value becomes the
  /// run's exit code.
  int EntryFunction = -1;
  std::vector<int32_t> EntryArgs;

  /// Treat calls to measured (non-intrinsic) functions as uninterpreted
  /// observables: each call is recorded as a RunResult::CallEvent and its
  /// return value is synthesized deterministically from StubSeed, the
  /// event index and the callee id, so a lone function can be executed
  /// while the rest of the program is mid-optimization. Intrinsics still
  /// execute normally.
  bool StubCalls = false;
  uint64_t StubSeed = 0;

  /// Optional per-callee argument-word counts, indexed by function id.
  /// A stubbed call to callee C then records only the first StubArity[C]
  /// argument words (clamped to 4): the words beyond a callee's declared
  /// parameters are the caller's own frame, whose layout legally changes
  /// under optimization. Callees outside the vector keep the 4-word peek.
  const std::vector<int> *StubArity = nullptr;

  /// Bytes copied over the data segment starting at the global base
  /// *before* globals are initialized (declared initializers and
  /// relocations win), giving fuzzers a deterministic nonzero initial
  /// memory image. Clipped to the data segment.
  const std::vector<uint8_t> *MemImage = nullptr;

  /// Capture the final globals region into RunResult::GlobalsMem so
  /// differential harnesses can compare observable stores byte by byte.
  bool CaptureGlobals = false;
};

/// Why a run ended (rtl/Eval.h defines the machine's fault model).
using rtl::Trap;

/// Dynamic measurements of one run (the paper's EASE counters).
struct DynamicStats {
  uint64_t Executed = 0;      ///< RTLs executed (intrinsics excluded)
  uint64_t UncondJumps = 0;   ///< executed Jump RTLs
  uint64_t IndirectJumps = 0; ///< executed SwitchJump RTLs
  uint64_t CondBranches = 0;  ///< executed CondJump RTLs
  uint64_t CondTaken = 0;     ///< executed CondJump RTLs that were taken
  uint64_t Returns = 0;
  uint64_t Calls = 0;         ///< calls to measured (non-intrinsic) code
  uint64_t Nops = 0;          ///< executed Nop RTLs (unfilled delay slots)

  /// All executed control transfers.
  uint64_t transfers() const {
    return UncondJumps + IndirectJumps + CondBranches + Returns + Calls;
  }

  /// Average number of instructions between branches (§5.2 statistic).
  double insnsBetweenBranches() const {
    return transfers() ? static_cast<double>(Executed) / transfers() : 0.0;
  }
};

/// Result of a run.
struct RunResult {
  /// One stubbed (uninterpreted) call, recorded in execution order when
  /// RunOptions::StubCalls is set.
  struct CallEvent {
    int Callee = 0;
    int32_t Args[4] = {0, 0, 0, 0}; ///< first argument words at [SP]
    int32_t Rv = 0;                 ///< the synthesized return value
    bool operator==(const CallEvent &O) const = default;
  };

  Trap TrapKind = Trap::None;
  std::string TrapMessage;
  int32_t ExitCode = 0;
  std::string Output; ///< bytes written via putchar/puts/printf
  DynamicStats Stats;
  std::vector<CallEvent> CallEvents; ///< stubbed calls (StubCalls mode)
  std::vector<uint8_t> GlobalsMem;   ///< final globals bytes (CaptureGlobals)

  bool ok() const { return TrapKind == Trap::None; }
};

/// A program lowered for execution. Building one resolves labels, register
/// numbers, global symbols and fetch addresses once, so a run only
/// dispatches decoded ops. An image owns copies of everything it needs and
/// stays valid after the program it was built from changes or dies.
class Image {
public:
  /// Lowers every function of \p P; the first RTL is fetched from
  /// \p CodeBase.
  explicit Image(const cfg::Program &P, uint32_t CodeBase = 0);

  /// Lowers \p F alone, as function 0 of a program whose data segment is
  /// \p Globals: the translation-validation oracle's probe.
  Image(const cfg::Function &F, const std::vector<cfg::Global> &Globals);

  /// Total code bytes (4 per RTL, delay slots included).
  uint32_t codeBytes() const { return CodeBytes; }

private:
  friend class Machine;

  /// Register-slot sentinels. A frame holds 64 physical slots followed by
  /// the function's virtual registers; reading or writing a sentinel slot
  /// fails exactly as the register number would have.
  static constexpr uint32_t NoReg = ~0u;          ///< component absent
  static constexpr uint32_t BadPhysReg = ~0u - 1; ///< CODEREP_CHECK fails
  static constexpr uint32_t BadVirtReg = ~0u - 2; ///< traps BadProgram

  /// A decoded operand. For memory operands (and Lea's address) the
  /// address is Disp + value(Base) + value(Index) * Scale, with the global
  /// symbol's address already folded into Disp.
  struct Loc {
    rtl::OperandKind Kind = rtl::OperandKind::None;
    uint8_t Size = 4;    ///< access width: 1 or 4 bytes
    bool BadSym = false; ///< names no global: traps when addressed
    uint32_t Base = NoReg;
    uint32_t Index = NoReg;
    int32_t Scale = 1;
    int64_t Disp = 0; ///< immediate value, or displacement
  };

  /// What an op does. Real ops mirror rtl::Opcode; FallThrough and FellOff
  /// are steps that fetch no instruction.
  enum class Code : uint8_t {
    Move, Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Neg, Not, Lea,
    Compare, CondJump, Jump, SwitchJump, Call, Return, Nop,
    Intrinsic,    ///< a Call of a library routine (Callee < 0)
    SlotCompare,  ///< a Compare in a delay slot: traps (it would clobber CC)
    SlotTransfer, ///< a transfer or call in a delay slot: aborts
    FallThrough,  ///< end of a block: one step, then the next block
    FellOff,      ///< after the last block: one step, then a trap
  };

  struct Op {
    Code C = Code::Nop;
    uint8_t Taken = 0;   ///< CondJump: taken when bit sign(CC)+1 is set
    uint32_t Addr = 0;   ///< fetch address
    int32_t Target = -1; ///< taken successor's op index; -1 traps
    int32_t Next = -1;   ///< CondJump: the next block's first op
    int32_t Slot = -1;   ///< transfers: index into Slots, -1 without one
    int32_t Callee = 0;  ///< Call/Intrinsic
    uint32_t TableOff = 0, TableLen = 0; ///< SwitchJump: span of Tables
    Loc Dst, Src1, Src2;
  };

  struct Fn {
    int32_t Entry = 0;   ///< op index of the first block's first op
    uint32_t FrameSlots = 0; ///< register-frame size
  };

  /// One step of data-segment initialization, in program order.
  struct InitStep {
    enum Kind : uint8_t { Bytes, Reloc, BadReloc } K = Bytes;
    uint32_t Addr = 0;
    uint32_t Value = 0; ///< Bytes: offset into InitBytes; Reloc: the word
    uint32_t Len = 0;   ///< Bytes only
  };

  void layoutData(const std::vector<cfg::Global> &Globals);
  void lowerFunction(const cfg::Function &F, uint32_t &Addr);

  std::vector<Op> Ops;
  std::vector<Op> Slots;        ///< delay slots, referenced by Op::Slot
  std::vector<int32_t> Tables;  ///< switch targets as op indices
  std::vector<Fn> Fns;
  int Main = -1;                ///< index of "main", or -1
  uint32_t CodeBytes = 0;

  std::vector<uint32_t> GlobalAddr;
  uint32_t DataEnd = 0; ///< one past the last global byte
  std::vector<InitStep> Init;
  std::vector<uint8_t> InitBytes;
};

/// Executes images. A machine is reusable: it keeps one data-memory
/// buffer and one register stack (every call frame is a slice of it)
/// across runs. Each store widens one of two watermarks - the data
/// segment's high water below the middle of memory, the stack's low water
/// above it - and the next run zeroes exactly those two ranges, so a run
/// starts from the same all-zero machine as a fresh one. Not thread-safe;
/// use one machine per thread.
class Machine {
public:
  /// Runs \p Img under \p Options.
  RunResult run(const Image &Img, const RunOptions &Options);

private:
  struct State;
  struct FreeMem {
    void operator()(uint8_t *P) const;
  };

  std::unique_ptr<uint8_t[], FreeMem> Mem;
  uint32_t MemSize = 0;
  uint32_t DataHi = 0;  ///< data writes lie in [GlobalBase, DataHi)
  uint32_t StackLo = 0; ///< stack writes lie in [StackLo, MemSize)
  std::vector<int64_t> RegStack;
};

/// Executes \p P starting at its "main" function (or Options'
/// EntryFunction) on a fresh machine.
RunResult run(const cfg::Program &P, const RunOptions &Options);

} // namespace coderep::ease

#endif // CODEREP_EASE_INTERP_H
