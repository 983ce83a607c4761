//===- FrontendTest.cpp - Lexer/parser/codegen unit tests --------------------------===//

#include "frontend/CodeGen.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"

#include "driver/Compiler.h"

#include "DeepSource.h"

#include <gtest/gtest.h>

using namespace coderep;
using namespace coderep::frontend;

namespace {

//===--- lexer -----------------------------------------------------------===//

std::vector<Token> lex(const std::string &S) {
  std::vector<Token> Tokens;
  std::string Error;
  EXPECT_TRUE(tokenize(S, Tokens, Error)) << Error;
  return Tokens;
}

TEST(Lexer, TokensAndKeywords) {
  auto T = lex("int x = 42; while (x <= 0x10) x <<= 2;");
  EXPECT_EQ(T[0].Kind, TokKind::KwInt);
  EXPECT_EQ(T[1].Kind, TokKind::Ident);
  EXPECT_EQ(T[1].Text, "x");
  EXPECT_EQ(T[3].Kind, TokKind::IntLit);
  EXPECT_EQ(T[3].IntValue, 42);
  EXPECT_EQ(T[5].Kind, TokKind::KwWhile);
  EXPECT_EQ(T[8].Kind, TokKind::LessEq);
  EXPECT_EQ(T[9].IntValue, 16); // 0x10
  EXPECT_EQ(T[12].Kind, TokKind::ShlEq);
}

TEST(Lexer, CharAndStringEscapes) {
  auto T = lex(R"('a' '\n' '\0' "a\tb\"c")");
  EXPECT_EQ(T[0].IntValue, 'a');
  EXPECT_EQ(T[1].IntValue, '\n');
  EXPECT_EQ(T[2].IntValue, 0);
  EXPECT_EQ(T[3].Kind, TokKind::StrLit);
  EXPECT_EQ(T[3].Text, "a\tb\"c");
}

TEST(Lexer, Comments) {
  auto T = lex("a // line\n /* block\n more */ b");
  EXPECT_EQ(T.size(), 3u); // a, b, End
  EXPECT_EQ(T[0].Text, "a");
  EXPECT_EQ(T[1].Text, "b");
}

TEST(Lexer, ErrorsReported) {
  std::vector<Token> Tokens;
  std::string Error;
  EXPECT_FALSE(tokenize("int x = @;", Tokens, Error));
  EXPECT_NE(Error.find("unexpected character"), std::string::npos);
  EXPECT_FALSE(tokenize("\"unterminated", Tokens, Error));
  EXPECT_FALSE(tokenize("/* unterminated", Tokens, Error));
}

//===--- parser ----------------------------------------------------------===//

TEST(Parser, FunctionAndGlobalShapes) {
  TranslationUnit TU;
  std::string Error;
  ASSERT_TRUE(parse(R"(
    int g = -5;
    int arr[4] = {1, 2, 3, 4};
    char msg[] = "hi";
    char *names[] = {"a", "bc"};
    int add(int a, int b) { return a + b; }
    void nothing() {}
  )",
                    TU, Error))
      << Error;
  ASSERT_EQ(TU.Globals.size(), 4u);
  EXPECT_EQ(TU.Globals[0].IntInit, (std::vector<int64_t>{-5}));
  EXPECT_EQ(TU.Globals[1].T.Dims, (std::vector<int>{4}));
  EXPECT_TRUE(TU.Globals[2].IsStrInit);
  EXPECT_TRUE(TU.Globals[3].IsStrListInit);
  EXPECT_EQ(TU.Globals[3].StrListInit.size(), 2u);
  ASSERT_EQ(TU.Funcs.size(), 2u);
  EXPECT_EQ(TU.Funcs[0].Params.size(), 2u);
  EXPECT_TRUE(TU.Funcs[1].Ret.isVoid());
}

TEST(Parser, PrecedenceAndAssociativity) {
  TranslationUnit TU;
  std::string Error;
  ASSERT_TRUE(parse("int main() { return 2 + 3 * 4 - 1; }", TU, Error));
  const Expr &E = *TU.Funcs[0].Body->Body[0]->E; // ((2 + (3*4)) - 1)
  ASSERT_EQ(E.K, Expr::Kind::Binary);
  EXPECT_EQ(E.BOp, BinaryOp::Sub);
  EXPECT_EQ(E.A->BOp, BinaryOp::Add);
  EXPECT_EQ(E.A->B->BOp, BinaryOp::Mul);
}

TEST(Parser, SyntaxErrorsCarryLineNumbers) {
  TranslationUnit TU;
  std::string Error;
  EXPECT_FALSE(parse("int main() {\n  return 1 +;\n}", TU, Error));
  EXPECT_NE(Error.find("line 2"), std::string::npos);
}

// Past MaxTreeDepth each hostile shape is a compile error naming the line
// it went too deep on; before the cap, code generation and AST destruction
// recursed until the stack overflowed.
TEST(Parser, TreeDeeperThanTheCapIsACompileError) {
  const int Past = MaxTreeDepth + 1;
  const struct {
    std::string Source;
    int Line;
  } Cases[] = {{test::sumChain(Past), 4},
               {test::nestedParens(Past), 4},
               {test::nestedIfs(Past), 4 + (Past - 1) / 2}};
  for (const auto &C : Cases) {
    driver::Compilation R = driver::compile(C.Source, target::TargetKind::Sparc,
                                            opt::OptLevel::Simple);
    EXPECT_EQ(R.Error, "line " + std::to_string(C.Line) +
                           ": nested deeper than 500 levels");
  }
}

TEST(Parser, TreeAtTheCapCompiles) {
  for (const std::string &Source :
       {test::sumChain(MaxTreeDepth), test::nestedParens(MaxTreeDepth),
        test::nestedIfs(MaxTreeDepth)}) {
    driver::Compilation R = driver::compile(Source, target::TargetKind::Sparc,
                                            opt::OptLevel::Simple);
    EXPECT_TRUE(R.ok()) << R.Error;
  }
}

TEST(Parser, SwitchCasesRecorded) {
  TranslationUnit TU;
  std::string Error;
  ASSERT_TRUE(parse(R"(
    int main() {
      switch (3) {
      case 1: return 1;
      case -2: return 2;
      default: return 0;
      }
    }
  )",
                    TU, Error))
      << Error;
  const Stmt &S = *TU.Funcs[0].Body->Body[0];
  ASSERT_EQ(S.K, Stmt::Kind::Switch);
  ASSERT_EQ(S.Cases.size(), 3u);
  EXPECT_EQ(S.Cases[1].Value, -2);
  EXPECT_TRUE(S.Cases[2].IsDefault);
}

//===--- types -----------------------------------------------------------===//

TEST(TypeTest, SizesAndElements) {
  Type IntArr;
  IntArr.Dims = {10};
  EXPECT_EQ(IntArr.storageSize(), 40);
  EXPECT_EQ(IntArr.elementSize(), 4);

  Type CharArr;
  CharArr.B = Type::Base::Char;
  CharArr.Dims = {10};
  EXPECT_EQ(CharArr.storageSize(), 10);
  EXPECT_EQ(CharArr.elementSize(), 1);

  Type Mat;
  Mat.Dims = {3, 4};
  EXPECT_EQ(Mat.storageSize(), 48);
  EXPECT_EQ(Mat.elementSize(), 16); // one row
  Type Row = Mat.elementType();
  EXPECT_EQ(Row.Dims, (std::vector<int>{4}));

  Type PtrToChar;
  PtrToChar.B = Type::Base::Char;
  PtrToChar.PtrDepth = 1;
  EXPECT_EQ(PtrToChar.storageSize(), 4);
  EXPECT_EQ(PtrToChar.elementSize(), 1);
  EXPECT_TRUE(PtrToChar.isPointer());
}

//===--- end-to-end semantics ---------------------------------------------===//

int32_t runExit(const std::string &Src, const std::string &Input = "") {
  ease::RunResult R = driver::compileAndRun(Src, target::TargetKind::M68,
                                            opt::OptLevel::Jumps, Input);
  EXPECT_TRUE(R.ok()) << R.TrapMessage;
  return R.ExitCode;
}

TEST(Semantics, OperatorZoo) {
  EXPECT_EQ(runExit("int main() { return (7 % 3) + (20 / 4) - (1 << 3) + "
                    "(256 >> 4) + (6 & 3) + (4 | 1) + (5 ^ 1); }"),
            1 + 5 - 8 + 16 + 2 + 5 + 4);
}

TEST(Semantics, CompoundAssignments) {
  EXPECT_EQ(runExit(R"(
    int main() {
      int x = 10;
      x += 5; x -= 2; x *= 3; x /= 2; x %= 10; x <<= 2; x |= 1; x ^= 3;
      x &= 14;
      return x;
    }
  )"),
            ((((((13 * 3 / 2) % 10) << 2) | 1) ^ 3) & 14));
}

TEST(Semantics, IncDecSemantics) {
  EXPECT_EQ(runExit(R"(
    int main() {
      int i = 5, a, b;
      a = i++;
      b = ++i;
      return a * 100 + b * 10 + i;
    }
  )"),
            5 * 100 + 7 * 10 + 7);
}

TEST(Semantics, ShortCircuitSideEffects) {
  EXPECT_EQ(runExit(R"(
    int calls;
    int bump() { calls++; return 1; }
    int main() {
      calls = 0;
      if (0 && bump()) {}
      if (1 || bump()) {}
      if (1 && bump()) {}
      if (0 || bump()) {}
      return calls;
    }
  )"),
            2);
}

TEST(Semantics, TernaryAndComparisonValues) {
  EXPECT_EQ(runExit("int main() { int x = 3; "
                    "return (x > 2 ? 10 : 20) + (x == 3) + (x != 3); }"),
            11);
}

TEST(Semantics, TwoDimensionalArrays) {
  EXPECT_EQ(runExit(R"(
    int m[3][4];
    int main() {
      int i, j, s;
      for (i = 0; i < 3; i++)
        for (j = 0; j < 4; j++)
          m[i][j] = i * 10 + j;
      s = 0;
      for (i = 0; i < 3; i++)
        s += m[i][i];
      return s + m[2][3];
    }
  )"),
            0 + 11 + 22 + 23);
}

TEST(Semantics, PointerArithmeticScales) {
  EXPECT_EQ(runExit(R"(
    int a[5];
    char c[5];
    int main() {
      int *p;
      char *q;
      a[3] = 70;
      c[3] = 7;
      p = a;
      q = c;
      p = p + 3;
      q = q + 3;
      return *p + *q;
    }
  )"),
            77);
}

TEST(Semantics, PointerDerefAssignAndAddressOf) {
  EXPECT_EQ(runExit(R"(
    int main() {
      int x = 1, y = 2;
      int *p;
      p = &x;
      *p = 50;
      p = &y;
      return x + *p;
    }
  )"),
            52);
}

TEST(Semantics, StringTableGlobals) {
  ease::RunResult R = driver::compileAndRun(R"(
    char *names[] = {"zero", "one", "two"};
    int main() {
      puts(names[1]);
      return strlen(names[2]);
    }
  )",
                                            target::TargetKind::Sparc,
                                            opt::OptLevel::Jumps);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "one\n");
  EXPECT_EQ(R.ExitCode, 3);
}

TEST(Semantics, GotoForwardAndBackward) {
  EXPECT_EQ(runExit(R"(
    int main() {
      int i = 0, s = 0;
    again:
      s += i;
      i++;
      if (i < 5)
        goto again;
      if (s > 100)
        goto out;
      s += 1000;
    out:
      return s;
    }
  )"),
            1010);
}

TEST(Semantics, SwitchFallthroughAndSparse) {
  EXPECT_EQ(runExit(R"(
    int classify(int x) {
      int r = 0;
      switch (x) {
      case 1:
      case 2:
        r = 10;
        break;
      case 100:
        r = 20;
        break;
      case 1000:
        r = 30; /* falls through */
      default:
        r += 1;
      }
      return r;
    }
    int main() {
      return classify(1) + classify(2) + classify(100) + classify(1000) +
             classify(5);
    }
  )"),
            10 + 10 + 20 + 31 + 1);
}

TEST(Semantics, SwitchStatementsBeforeFirstCaseAreUnreachable) {
  // Statements before the first case label are dead code but legal; the
  // dispatch block is already terminated, so they must open a new block
  // (a bare break there once put a jump mid-block and aborted codegen).
  EXPECT_EQ(runExit(R"(
    int f(int x) {
      switch (x & 7) {
        x = 99;
        break;
      default:
        x = x + 1;
      case 2:
        x = x + 10;
      }
      return x;
    }
    int main() { return f(0) + f(2); }
  )"),
            (0 + 1 + 10) + (2 + 10));
}

TEST(Semantics, BreakContinueNested) {
  EXPECT_EQ(runExit(R"(
    int main() {
      int i, j, s = 0;
      for (i = 0; i < 5; i++) {
        if (i == 3)
          continue;
        for (j = 0; j < 5; j++) {
          if (j == 2)
            break;
          s += 10;
        }
        s += 1;
      }
      return s;
    }
  )"),
            4 * 21);
}

TEST(Semantics, RecursionDepth) {
  EXPECT_EQ(runExit(R"(
    int depth(int n) {
      if (n == 0) return 0;
      return 1 + depth(n - 1);
    }
    int main() { return depth(100); }
  )"),
            100);
}

TEST(Semantics, CharArithmeticSignExtends) {
  EXPECT_EQ(runExit(R"(
    char buf[4];
    int main() {
      buf[0] = 200; /* stored as byte, read back as -56 */
      return buf[0];
    }
  )"),
            -56);
}

TEST(Semantics, UnknownVariableIsError) {
  driver::Compilation C = driver::compile(
      "int main() { return nope; }", target::TargetKind::M68,
      opt::OptLevel::Simple);
  EXPECT_FALSE(C.ok());
  EXPECT_NE(C.Error.find("unknown variable"), std::string::npos);
}

TEST(Semantics, UnknownFunctionIsError) {
  driver::Compilation C = driver::compile(
      "int main() { return nope(); }", target::TargetKind::M68,
      opt::OptLevel::Simple);
  EXPECT_FALSE(C.ok());
  EXPECT_NE(C.Error.find("unknown function"), std::string::npos);
}

TEST(Semantics, MissingMainIsError) {
  driver::Compilation C = driver::compile("int f() { return 1; }",
                                          target::TargetKind::M68,
                                          opt::OptLevel::Simple);
  EXPECT_FALSE(C.ok());
  EXPECT_NE(C.Error.find("main"), std::string::npos);
}

TEST(Semantics, PrototypeThenDefinition) {
  EXPECT_EQ(runExit(R"(
    int helper(int x);
    int main() { return helper(4); }
    int helper(int x) { return x * x; }
  )"),
            16);
}

} // namespace
