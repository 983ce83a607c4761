//===- Interp.cpp - RTL interpreter with EASE-style measurement -------------===//

#include "ease/Interp.h"

#include <algorithm>

#include "support/Check.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <cstdlib>
#include <cstring>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::ease;
using namespace coderep::rtl;

FetchSink::~FetchSink() = default;

namespace {

/// First data address handed to globals; lower addresses trap so that null
/// dereferences are caught.
constexpr uint32_t GlobalBase = 0x100;

/// Physical register slots at the bottom of every frame.
constexpr uint32_t PhysSlots = 64;

/// Deepest call nesting before a run traps.
constexpr size_t MaxCallDepth = 100000;

} // namespace

//===----------------------------------------------------------------------===//
// Image: lowering
//===----------------------------------------------------------------------===//

Image::Image(const Program &P, uint32_t CodeBase) {
  layoutData(P.Globals);
  Main = P.findFunction("main");
  uint32_t Addr = CodeBase;
  for (const auto &F : P.Functions)
    lowerFunction(*F, Addr);
  CodeBytes = Addr - CodeBase;
}

Image::Image(const Function &F, const std::vector<Global> &Globals) {
  layoutData(Globals);
  Main = F.Name == "main" ? 0 : -1;
  uint32_t Addr = 0;
  lowerFunction(F, Addr);
  CodeBytes = Addr;
}

void Image::layoutData(const std::vector<Global> &Globals) {
  // Addresses first, so relocations can reference globals laid out later.
  uint32_t Addr = GlobalBase;
  for (const Global &G : Globals) {
    Addr = (Addr + 3u) & ~3u;
    GlobalAddr.push_back(Addr);
    Addr += static_cast<uint32_t>(G.Size);
  }
  DataEnd = Addr;
  for (size_t GI = 0; GI < Globals.size(); ++GI) {
    const Global &G = Globals[GI];
    const uint32_t Base = GlobalAddr[GI];
    if (!G.Init.empty()) {
      Init.push_back({InitStep::Bytes, Base,
                      static_cast<uint32_t>(InitBytes.size()),
                      static_cast<uint32_t>(G.Init.size())});
      InitBytes.insert(InitBytes.end(), G.Init.begin(), G.Init.end());
    }
    for (auto [Off, Sym] : G.Relocs) {
      if (Sym < 0 || Sym >= static_cast<int>(GlobalAddr.size())) {
        Init.push_back({InitStep::BadReloc, 0, 0, 0});
        return; // initialization stops at the bad relocation
      }
      Init.push_back({InitStep::Reloc, Base + static_cast<uint32_t>(Off),
                      GlobalAddr[static_cast<size_t>(Sym)], 0});
    }
  }
}

void Image::lowerFunction(const Function &F, uint32_t &Addr) {
  // Real ops share rtl::Opcode's numbering, so lowering casts between them.
  static_assert(
      static_cast<int>(Code::Move) == static_cast<int>(Opcode::Move) &&
      static_cast<int>(Code::Nop) == static_cast<int>(Opcode::Nop));
  const uint32_t FrameSlots =
      PhysSlots + static_cast<uint32_t>(F.vregLimit() - FirstVirtual);
  auto slotOf = [&](int R) -> uint32_t {
    if (R < FirstVirtual)
      return R >= 0 && R < static_cast<int>(PhysSlots)
                 ? static_cast<uint32_t>(R)
                 : BadPhysReg;
    const uint64_t S = PhysSlots + static_cast<uint64_t>(R - FirstVirtual);
    return S < FrameSlots ? static_cast<uint32_t>(S) : BadVirtReg;
  };
  // Address components, whatever the operand's kind (Lea computes the
  // address of any operand; a register operand's address is its value).
  auto address = [&](const Operand &O) {
    Loc L;
    L.Kind = O.Kind;
    L.Size = O.Size == 1 ? 1 : 4;
    L.Disp = O.Disp;
    if (O.Sym >= 0) {
      if (O.Sym < static_cast<int>(GlobalAddr.size()))
        L.Disp += GlobalAddr[static_cast<size_t>(O.Sym)];
      else
        L.BadSym = true;
    }
    if (O.Base >= 0)
      L.Base = slotOf(O.Base);
    if (O.Index >= 0)
      L.Index = slotOf(O.Index);
    L.Scale = O.Scale;
    return L;
  };
  // Value operands: an immediate is its value alone, and a register
  // operand always names a slot (register -1 included, which fails like
  // any other bad physical register).
  auto value = [&](const Operand &O) {
    if (O.Kind == OperandKind::Imm) {
      Loc L;
      L.Kind = OperandKind::Imm;
      L.Disp = O.Disp;
      return L;
    }
    Loc L = address(O);
    if (O.Kind == OperandKind::Reg)
      L.Base = slotOf(O.Base);
    return L;
  };
  // Decodes an RTL given as an Insn (delay slots) or an arena view.
  auto lower = [&](const auto &I, uint32_t At, bool InSlot) {
    Op O;
    O.Addr = At;
    switch (I.Op) {
    case Opcode::Move:
    case Opcode::Neg:
    case Opcode::Not:
      O.C = static_cast<Code>(I.Op);
      O.Dst = value(I.Dst);
      O.Src1 = value(I.Src1);
      break;
    case Opcode::Lea:
      O.C = Code::Lea;
      O.Dst = value(I.Dst);
      O.Src1 = address(I.Src1);
      break;
    case Opcode::Compare:
      O.C = InSlot ? Code::SlotCompare : Code::Compare;
      O.Src1 = value(I.Src1);
      O.Src2 = value(I.Src2);
      break;
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr:
      O.C = static_cast<Code>(I.Op);
      O.Dst = value(I.Dst);
      O.Src1 = value(I.Src1);
      O.Src2 = value(I.Src2);
      break;
    case Opcode::Nop:
      O.C = Code::Nop;
      break;
    case Opcode::CondJump:
    case Opcode::Jump:
    case Opcode::SwitchJump:
    case Opcode::Return:
    case Opcode::Call:
      if (InSlot) {
        O.C = Code::SlotTransfer;
        break;
      }
      O.C = I.Op == Opcode::Call && I.Callee < 0 ? Code::Intrinsic
                                                 : static_cast<Code>(I.Op);
      O.Callee = I.Callee;
      if (I.Op == Opcode::SwitchJump)
        O.Src1 = value(I.Src1);
      break;
    }
    return O;
  };

  // Op indices of each block's first op; BlockStart[size()] is the
  // fell-off step.
  const int NB = F.size();
  std::vector<int32_t> BlockStart(static_cast<size_t>(NB) + 1);
  int32_t Next = static_cast<int32_t>(Ops.size());
  for (int B = 0; B < NB; ++B) {
    BlockStart[static_cast<size_t>(B)] = Next;
    Next += static_cast<int32_t>(F.block(B)->Insns.size()) + 1;
  }
  BlockStart[static_cast<size_t>(NB)] = Next;
  auto targetOf = [&](int Label) {
    const int Idx = F.indexOfLabel(Label);
    return Idx < 0 ? -1 : BlockStart[static_cast<size_t>(Idx)];
  };

  Fns.push_back({BlockStart[0], FrameSlots});
  for (int B = 0; B < NB; ++B) {
    const BasicBlock &BB = *F.block(B);
    const uint32_t N = static_cast<uint32_t>(BB.Insns.size());
    int32_t Slot = -1;
    if (BB.DelaySlot) {
      Slot = static_cast<int32_t>(Slots.size());
      Slots.push_back(lower(*BB.DelaySlot, Addr + 4 * N, true));
    }
    for (uint32_t K = 0; K < N; ++K) {
      const ConstInsnView I = BB.Insns[K];
      Op O = lower(I, Addr + 4 * K, false);
      switch (O.C) {
      case Code::CondJump:
        O.Next = BlockStart[static_cast<size_t>(B) + 1];
        // A condition holds or not for every CC of one sign, so three
        // probes decide the branch for all of them.
        for (int Sign = -1; Sign <= 1; ++Sign)
          O.Taken |=
              static_cast<uint8_t>(condHolds(I.Cond, Sign) << (Sign + 1));
        [[fallthrough]];
      case Code::Jump:
        O.Target = targetOf(I.Target);
        O.Slot = Slot;
        break;
      case Code::SwitchJump:
        O.TableOff = static_cast<uint32_t>(Tables.size());
        O.TableLen = static_cast<uint32_t>(I.Table.size());
        for (int Label : I.Table)
          Tables.push_back(targetOf(Label));
        O.Slot = Slot;
        break;
      case Code::Return:
        O.Slot = Slot;
        break;
      default:
        break;
      }
      Ops.push_back(O);
    }
    Op FT;
    FT.C = Code::FallThrough;
    Ops.push_back(FT);
    Addr += 4 * static_cast<uint32_t>(BB.rtlCount());
  }
  Op Off;
  Off.C = Code::FellOff;
  Ops.push_back(Off);
}

//===----------------------------------------------------------------------===//
// Machine: execution
//===----------------------------------------------------------------------===//

void Machine::FreeMem::operator()(uint8_t *P) const { std::free(P); }

/// One run: the interpreted machine's registers, control state and result.
struct Machine::State {
  Machine &M;
  const Image &Img;
  const RunOptions &Options;
  uint8_t *Mem;
  const uint32_t Mid; ///< data writes below, stack writes at or above

  RunResult Result;
  bool Halted = false;
  size_t InputPos = 0;

  int Func = 0;
  size_t RegBase = 0;
  int64_t *Regs = nullptr;

  struct Frame {
    int Func;
    int32_t ReturnOp;
    size_t RegBase;
  };
  std::vector<Frame> Frames;

  State(Machine &M, const Image &Img, const RunOptions &Options)
      : M(M), Img(Img), Options(Options), Mem(M.Mem.get()),
        Mid(M.MemSize / 2) {}

  void exec();

  //===--- helpers -------------------------------------------------------===//

  void trap(Trap Kind, std::string Msg) {
    if (Halted)
      return;
    Result.TrapKind = Kind;
    Result.TrapMessage = std::move(Msg);
    Halted = true;
  }

  /// Makes a zeroed frame for function \p F at \p Base the current one.
  void enterFrame(int F, size_t Base) {
    const uint32_t N = Img.Fns[static_cast<size_t>(F)].FrameSlots;
    if (M.RegStack.size() < Base + N)
      M.RegStack.resize(std::max(Base + N, 2 * M.RegStack.size()));
    Func = F;
    RegBase = Base;
    Regs = M.RegStack.data() + Base;
    std::fill_n(Regs, N, 0);
  }

  void badSlot(uint32_t S) {
    CODEREP_CHECK(S == Image::BadVirtReg, "physical register out of range");
    trap(Trap::BadProgram, "register out of range");
  }

  int64_t getReg(uint32_t S) {
    if (S >= Image::BadVirtReg) {
      badSlot(S);
      return 0;
    }
    return Regs[S];
  }

  void setReg(uint32_t S, int64_t V) {
    if (S >= Image::BadVirtReg) {
      badSlot(S);
      return;
    }
    Regs[S] = V;
  }

  bool checkAddr(uint32_t Addr, uint32_t Size) {
    if (Addr < GlobalBase || Addr + Size > M.MemSize || Addr + Size < Addr) {
      trap(Trap::OutOfBounds, format("memory access at 0x%x", Addr));
      return false;
    }
    return true;
  }

  /// Widens the reset watermark covering [Lo, Hi).
  void touch(uint32_t Lo, uint32_t Hi) {
    if (Lo < Mid)
      M.DataHi = std::max(M.DataHi, Hi);
    else
      M.StackLo = std::min(M.StackLo, Lo);
  }

  int64_t load(uint32_t Addr, uint8_t Size) {
    if (!checkAddr(Addr, Size))
      return 0;
    if (Size == 1)
      return static_cast<int8_t>(Mem[Addr]);
    uint32_t V;
    std::memcpy(&V, &Mem[Addr], 4);
    return static_cast<int32_t>(V);
  }

  void store(uint32_t Addr, uint8_t Size, int64_t Value) {
    if (!checkAddr(Addr, Size))
      return;
    touch(Addr, Addr + Size);
    if (Size == 1) {
      Mem[Addr] = static_cast<uint8_t>(Value);
      return;
    }
    uint32_t V = static_cast<uint32_t>(Value);
    std::memcpy(&Mem[Addr], &V, 4);
  }

  uint32_t memAddr(const Image::Loc &L) {
    if (L.BadSym) {
      trap(Trap::BadProgram, "bad global symbol");
      return 0;
    }
    int64_t Addr = L.Disp;
    if (L.Base != Image::NoReg)
      Addr += getReg(L.Base);
    if (L.Index != Image::NoReg)
      Addr += getReg(L.Index) * L.Scale;
    return static_cast<uint32_t>(Addr);
  }

  int64_t eval(const Image::Loc &L) {
    // Most frequent first: tested in turn, not through a jump table.
    if (L.Kind == OperandKind::Reg)
      return getReg(L.Base);
    if (L.Kind == OperandKind::Imm)
      return L.Disp;
    if (L.Kind == OperandKind::Mem)
      return load(memAddr(L), L.Size);
    trap(Trap::BadProgram, "use of missing operand");
    return 0;
  }

  void writeResult(const Image::Loc &Dst, int64_t Value) {
    Value = static_cast<int32_t>(Value); // 32-bit machine words
    if (Dst.Kind == OperandKind::Reg) {
      setReg(Dst.Base, Value);
      return;
    }
    if (Dst.Kind == OperandKind::Mem) {
      store(memAddr(Dst), Dst.Size, Value);
      return;
    }
    trap(Trap::BadProgram, "bad destination operand");
  }

  /// The op a taken transfer continues at (unchanged \p Pc after a trap).
  int32_t jumpTo(int32_t Target, int32_t Pc) {
    if (Target < 0) {
      trap(Trap::BadProgram, "jump to unknown label");
      return Pc;
    }
    return Target;
  }

  //===--- intrinsics ----------------------------------------------------===//

  int64_t intrinsicArg(int I) {
    return load(static_cast<uint32_t>(getReg(RegSP)) + 4 * I, 4);
  }

  std::string readCString(uint32_t Addr) {
    std::string S;
    while (true) {
      if (!checkAddr(Addr, 1))
        return S;
      char C = static_cast<char>(Mem[Addr++]);
      if (!C)
        return S;
      S.push_back(C);
      if (S.size() > M.MemSize)
        return S; // cyclic garbage guard
    }
  }

  void doPrintf();
  void doIntrinsic(int Callee);
  void stubCall(int Callee);

  //===--- execution -----------------------------------------------------===//

  [[gnu::always_inline]] inline void execute(const Image::Op &O);
  void runDelaySlot(const Image::Op &T);
  void executeDelaySlot(const Image::Op &T) {
    if (T.Slot >= 0)
      runDelaySlot(T);
  }
  bool setUp();
};

void Machine::State::doPrintf() {
  std::string Fmt = readCString(static_cast<uint32_t>(intrinsicArg(0)));
  int ArgIdx = 1;
  std::string &Out = Result.Output;
  for (size_t I = 0; I < Fmt.size(); ++I) {
    char C = Fmt[I];
    if (C != '%') {
      Out.push_back(C);
      continue;
    }
    // Parse %[-0][width][conv].
    std::string Spec = "%";
    ++I;
    while (I < Fmt.size() && (Fmt[I] == '-' || Fmt[I] == '0')) {
      Spec.push_back(Fmt[I]);
      ++I;
    }
    while (I < Fmt.size() && Fmt[I] >= '0' && Fmt[I] <= '9') {
      Spec.push_back(Fmt[I]);
      ++I;
    }
    if (I >= Fmt.size())
      break;
    char Conv = Fmt[I];
    switch (Conv) {
    case '%':
      Out.push_back('%');
      break;
    case 'c':
      // The argument's low byte, as C prints it; a length modifier would
      // make it a wide character.
      Spec.push_back('c');
      Out += format(Spec.c_str(),
                    static_cast<unsigned char>(intrinsicArg(ArgIdx++)));
      break;
    case 'd':
    case 'u':
    case 'o':
    case 'x': {
      Spec.push_back(Conv == 'u' ? 'd' : Conv);
      long long V = intrinsicArg(ArgIdx++);
      if (Conv == 'd' || Conv == 'u')
        Out += format((Spec.insert(Spec.size() - 1, "ll"), Spec).c_str(), V);
      else
        Out += format((Spec.insert(Spec.size() - 1, "ll"), Spec).c_str(),
                      static_cast<unsigned long long>(
                          static_cast<uint32_t>(V)));
      break;
    }
    case 's': {
      Spec.push_back('s');
      std::string S = readCString(static_cast<uint32_t>(intrinsicArg(ArgIdx++)));
      Out += format(Spec.c_str(), S.c_str());
      break;
    }
    default:
      Out.push_back(Conv);
      break;
    }
  }
}

void Machine::State::doIntrinsic(int Callee) {
  switch (Callee) {
  case IntrinsicGetchar:
    if (InputPos < Options.Input.size())
      setReg(RegRV,
             static_cast<unsigned char>(Options.Input[InputPos++]));
    else
      setReg(RegRV, -1);
    break;
  case IntrinsicPutchar: {
    int64_t C = intrinsicArg(0);
    Result.Output.push_back(static_cast<char>(C));
    setReg(RegRV, C);
    break;
  }
  case IntrinsicPuts: {
    Result.Output += readCString(static_cast<uint32_t>(intrinsicArg(0)));
    Result.Output.push_back('\n');
    setReg(RegRV, 0);
    break;
  }
  case IntrinsicPrintf:
    doPrintf();
    setReg(RegRV, 0);
    break;
  case IntrinsicExit:
    Result.ExitCode = static_cast<int32_t>(intrinsicArg(0));
    Halted = true;
    break;
  case IntrinsicStrlen:
    setReg(RegRV, static_cast<int64_t>(
                      readCString(static_cast<uint32_t>(intrinsicArg(0)))
                          .size()));
    break;
  case IntrinsicStrcmp: {
    std::string A = readCString(static_cast<uint32_t>(intrinsicArg(0)));
    std::string B = readCString(static_cast<uint32_t>(intrinsicArg(1)));
    setReg(RegRV, A < B ? -1 : A > B ? 1 : 0);
    break;
  }
  case IntrinsicStrcpy: {
    uint32_t Dst = static_cast<uint32_t>(intrinsicArg(0));
    std::string S = readCString(static_cast<uint32_t>(intrinsicArg(1)));
    for (char C : S)
      store(Dst++, 1, C);
    store(Dst, 1, 0);
    setReg(RegRV, intrinsicArg(0));
    break;
  }
  case IntrinsicAbs: {
    int64_t V = static_cast<int32_t>(intrinsicArg(0));
    setReg(RegRV, V < 0 ? -V : V);
    break;
  }
  case IntrinsicAtoi: {
    std::string S = readCString(static_cast<uint32_t>(intrinsicArg(0)));
    setReg(RegRV, std::atoi(S.c_str()));
    break;
  }
  default:
    trap(Trap::BadProgram, "unknown intrinsic");
  }
}

void Machine::State::stubCall(int Callee) {
  // Uninterpreted call: record the observable (callee + argument words)
  // and synthesize a return value that depends only on (StubSeed, event
  // index, callee), so the event stream and every downstream value are
  // identical across differential runs.
  ++Result.Stats.Calls;
  RunResult::CallEvent Ev;
  Ev.Callee = Callee;
  const uint32_t SP = static_cast<uint32_t>(getReg(RegSP));
  uint32_t NArgs = 4;
  if (Options.StubArity &&
      Callee < static_cast<int>(Options.StubArity->size()))
    NArgs = std::min<uint32_t>(
        4, static_cast<uint32_t>((*Options.StubArity)[Callee]));
  for (uint32_t A = 0; A < NArgs; ++A) {
    const uint32_t At = SP + 4 * A;
    if (At >= GlobalBase && At + 4 <= M.MemSize) {
      uint32_t V;
      std::memcpy(&V, &Mem[At], 4);
      Ev.Args[A] = static_cast<int32_t>(V);
    }
  }
  Rng G(Options.StubSeed ^
        0x9e3779b97f4a7c15ULL * (Result.CallEvents.size() + 1) ^
        0x517cc1b727220a95ULL * static_cast<uint64_t>(Callee));
  Ev.Rv = static_cast<int32_t>(G.next());
  setReg(RegRV, Ev.Rv);
  Result.CallEvents.push_back(Ev);
}

void Machine::State::runDelaySlot(const Image::Op &T) {
  const Image::Op &S = Img.Slots[static_cast<size_t>(T.Slot)];
  if (Options.Sink)
    Options.Sink->fetch(S.Addr);
  ++Result.Stats.Executed;
  // Delay-slot RTLs are plain data operations (verified not transfers).
  switch (S.C) {
  case Image::Code::SlotCompare:
    trap(Trap::BadProgram, "compare in delay slot would clobber CC");
    break;
  case Image::Code::SlotTransfer:
    CODEREP_UNREACHABLE("transfers handled by the main loop");
  default:
    execute(S);
    break;
  }
}

inline void Machine::State::execute(const Image::Op &O) {
  using C = Image::Code;
  switch (O.C) {
  case C::Nop:
    ++Result.Stats.Nops;
    break;
  case C::Move:
    writeResult(O.Dst, eval(O.Src1));
    break;
  case C::Lea:
    writeResult(O.Dst, memAddr(O.Src1));
    break;
  case C::Neg:
  case C::Not:
    writeResult(O.Dst, evalUnary(static_cast<Opcode>(O.C), eval(O.Src1)));
    break;
  case C::Compare: {
    // Sequenced: when both operands trap, Src1's trap is the one reported.
    const int64_t A = eval(O.Src1);
    const int64_t B = eval(O.Src2);
    setReg(RegCC, compareValue(A, B));
    break;
  }
  case C::Add:
  case C::Sub:
  case C::Mul:
  case C::Div:
  case C::Rem:
  case C::And:
  case C::Or:
  case C::Xor:
  case C::Shl:
  case C::Shr: {
    const int64_t A = eval(O.Src1);
    const int64_t B = eval(O.Src2);
    const AluResult R = evalBinary(static_cast<Opcode>(O.C), A, B);
    if (!R.ok()) {
      trap(R.Fault, R.Fault == Trap::DivByZero ? "division by zero"
                                               : "signed division overflow");
      return;
    }
    writeResult(O.Dst, R.Value);
    break;
  }
  default:
    CODEREP_UNREACHABLE("transfers handled by the main loop");
  }
}

/// Lays the data segment out and enters the first function. Returns false
/// when the run ended before its first step.
bool Machine::State::setUp() {
  if (Img.DataEnd >= Options.MemBytes / 2) {
    trap(Trap::OutOfBounds, "globals exceed data memory");
    return false;
  }
  // The fuzzing memory image first, so declared initializers and
  // relocations below overwrite it: uninitialized globals start at
  // deterministic garbage instead of zero.
  if (Options.MemImage && GlobalBase < M.MemSize) {
    const uint32_t N = static_cast<uint32_t>(std::min<size_t>(
        Options.MemImage->size(), M.MemSize - GlobalBase));
    std::memcpy(Mem + GlobalBase, Options.MemImage->data(), N);
    touch(GlobalBase, GlobalBase + N);
  }
  for (const Image::InitStep &S : Img.Init) {
    switch (S.K) {
    case Image::InitStep::Bytes: {
      const uint32_t N = std::min(S.Len, M.MemSize - S.Addr);
      std::memcpy(Mem + S.Addr, Img.InitBytes.data() + S.Value, N);
      touch(S.Addr, S.Addr + N);
      break;
    }
    case Image::InitStep::Reloc:
      store(S.Addr, 4, S.Value);
      break;
    case Image::InitStep::BadReloc:
      trap(Trap::BadProgram, "relocation against unknown global");
      return false;
    }
  }

  if (Options.EntryFunction >= 0) {
    if (Options.EntryFunction >= static_cast<int>(Img.Fns.size())) {
      trap(Trap::BadProgram, "entry function out of range");
      return false;
    }
    enterFrame(Options.EntryFunction, 0);
    // Leave headroom above SP for the argument words (the callee reads its
    // parameters at [SP + 4*i], exactly where a real caller stores them).
    const int64_t SP = static_cast<int64_t>(Options.MemBytes) - 64;
    setReg(RegSP, SP);
    for (size_t I = 0; I < Options.EntryArgs.size() && I < 12; ++I)
      store(static_cast<uint32_t>(SP) + 4 * static_cast<uint32_t>(I), 4,
            Options.EntryArgs[I]);
  } else {
    if (Img.Main < 0) {
      trap(Trap::BadProgram, "no main function");
      return false;
    }
    enterFrame(Img.Main, 0);
    setReg(RegSP, static_cast<int64_t>(Options.MemBytes) - 16);
  }
  return true;
}

void Machine::State::exec() {
  if (!setUp())
    return;
  using C = Image::Code;
  const Image::Op *Ops = Img.Ops.data();
  FetchSink *const Sink = Options.Sink;
  const uint64_t MaxSteps = Options.MaxSteps;
  uint64_t Steps = 0;
  int32_t Pc = Img.Fns[static_cast<size_t>(Func)].Entry;
  while (!Halted) {
    if (++Steps > MaxSteps) {
      trap(Trap::StepLimit, "step limit exceeded");
      break;
    }
    const Image::Op &O = Ops[Pc];
    if (O.C >= C::FallThrough) {
      if (O.C == C::FallThrough) {
        ++Pc; // the next block's first op follows
        continue;
      }
      trap(Trap::BadProgram, "control fell off the end of a function");
      break;
    }
    if (Sink)
      Sink->fetch(O.Addr);
    ++Result.Stats.Executed;

    switch (O.C) {
    case C::Jump:
      ++Result.Stats.UncondJumps;
      executeDelaySlot(O);
      Pc = jumpTo(O.Target, Pc);
      break;
    case C::CondJump: {
      ++Result.Stats.CondBranches;
      const int64_t CC = getReg(RegCC);
      const bool Taken = (O.Taken >> ((CC > 0) - (CC < 0) + 1)) & 1;
      executeDelaySlot(O);
      if (Taken) {
        ++Result.Stats.CondTaken;
        Pc = jumpTo(O.Target, Pc);
      } else {
        Pc = O.Next;
      }
      break;
    }
    case C::SwitchJump: {
      ++Result.Stats.IndirectJumps;
      int64_t Index = eval(O.Src1);
      executeDelaySlot(O);
      if (Index < 0 || Index >= static_cast<int64_t>(O.TableLen)) {
        trap(Trap::BadProgram, "switch index out of table range");
        break;
      }
      Pc = jumpTo(Img.Tables[O.TableOff + static_cast<size_t>(Index)], Pc);
      break;
    }
    case C::Intrinsic:
      doIntrinsic(O.Callee);
      ++Pc;
      break;
    case C::Call: {
      if (Options.StubCalls) {
        stubCall(O.Callee);
        ++Pc;
        break;
      }
      if (O.Callee >= static_cast<int>(Img.Fns.size())) {
        trap(Trap::BadProgram, "call to unknown function");
        break;
      }
      ++Result.Stats.Calls;
      const int64_t SavedSP = getReg(RegSP);
      const size_t CalleeBase =
          RegBase + Img.Fns[static_cast<size_t>(Func)].FrameSlots;
      Frames.push_back({Func, Pc + 1, RegBase});
      enterFrame(O.Callee, CalleeBase);
      Pc = Img.Fns[static_cast<size_t>(Func)].Entry;
      setReg(RegSP, SavedSP);
      if (Frames.size() > MaxCallDepth)
        trap(Trap::BadProgram, "call stack overflow");
      break;
    }
    case C::Return: {
      ++Result.Stats.Returns;
      executeDelaySlot(O);
      if (Frames.empty()) {
        Result.ExitCode = static_cast<int32_t>(getReg(RegRV));
        Halted = true;
        break;
      }
      const int64_t RV = getReg(RegRV);
      const Frame F = Frames.back();
      Frames.pop_back();
      Func = F.Func;
      Pc = F.ReturnOp;
      RegBase = F.RegBase;
      Regs = M.RegStack.data() + RegBase;
      setReg(RegRV, RV);
      break;
    }
    default:
      execute(O);
      ++Pc;
      break;
    }
  }
}

RunResult Machine::run(const Image &Img, const RunOptions &Options) {
  if (!Mem || MemSize != Options.MemBytes) {
    Mem.reset(static_cast<uint8_t *>(
        std::calloc(std::max<size_t>(Options.MemBytes, 1), 1)));
    CODEREP_CHECK(Mem != nullptr, "cannot allocate interpreter memory");
    MemSize = Options.MemBytes;
  } else {
    // Zero exactly what the previous run wrote.
    if (DataHi > GlobalBase)
      std::memset(Mem.get() + GlobalBase, 0, DataHi - GlobalBase);
    if (StackLo < MemSize)
      std::memset(Mem.get() + StackLo, 0, MemSize - StackLo);
  }
  DataHi = GlobalBase;
  StackLo = MemSize;

  State S(*this, Img, Options);
  S.exec();
  if (Options.CaptureGlobals && Img.DataEnd > GlobalBase &&
      Img.DataEnd <= MemSize)
    S.Result.GlobalsMem.assign(Mem.get() + GlobalBase,
                               Mem.get() + Img.DataEnd);
  return std::move(S.Result);
}

RunResult ease::run(const Program &P, const RunOptions &Options) {
  Machine M;
  return M.run(Image(P), Options);
}
