//===- Parser.cpp - MiniC recursive-descent parser -----------------------------===//

#include "frontend/Parser.h"

#include "frontend/Lexer.h"
#include "support/Format.h"

using namespace coderep;
using namespace coderep::frontend;

namespace {

class Parser {
public:
  Parser(std::vector<Token> Tokens, TranslationUnit &Out, std::string &Error)
      : Tokens(std::move(Tokens)), Out(Out), Error(Error) {}

  bool run();

private:
  std::vector<Token> Tokens;
  TranslationUnit &Out;
  std::string &Error;
  size_t Pos = 0;
  bool Failed = false;
  int Depth = 0; ///< tree levels above the node being parsed

  /// Takes the parse one level deeper, or fails past MaxTreeDepth and
  /// the caller builds nothing below. Every recursion of the grammar
  /// passes through here, so the parser's own stack is bounded too.
  bool descend() {
    if (++Depth <= MaxTreeDepth)
      return true;
    fail(format("line %d: nested deeper than %d levels", peek().Line,
                MaxTreeDepth));
    return false;
  }

  /// One level deeper for the guard's lifetime.
  struct Level {
    Parser &P;
    const bool Ok;
    explicit Level(Parser &P) : P(P), Ok(P.descend()) {}
    ~Level() { --P.Depth; }
  };

  const Token &peek(int Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }
  const Token &take() {
    const Token &T = peek();
    if (Pos + 1 < Tokens.size())
      ++Pos;
    return T;
  }
  bool at(TokKind K) const { return peek().Kind == K; }
  bool accept(TokKind K) {
    if (!at(K))
      return false;
    take();
    return true;
  }
  bool expect(TokKind K, const char *What) {
    if (accept(K))
      return true;
    fail(format("line %d: expected %s", peek().Line, What));
    return false;
  }
  void fail(std::string Msg) {
    if (!Failed) {
      Failed = true;
      Error = std::move(Msg);
    }
  }

  bool atTypeKeyword() const {
    return at(TokKind::KwInt) || at(TokKind::KwChar) || at(TokKind::KwVoid);
  }

  Type parseBaseType();
  bool parseTopLevel();
  bool parseGlobalInit(GlobalDecl &G);
  std::unique_ptr<Stmt> parseStmt();
  std::unique_ptr<Stmt> parseBlock();
  std::unique_ptr<Stmt> parseDecl(); // one or more local declarations
  std::unique_ptr<Expr> parseExpr();
  std::unique_ptr<Expr> parseAssign();
  std::unique_ptr<Expr> parseCond();
  std::unique_ptr<Expr> parseBinary(int MinPrec);
  std::unique_ptr<Expr> parseUnary();
  std::unique_ptr<Expr> parsePostfix();
  std::unique_ptr<Expr> parsePrimary();
};

Type Parser::parseBaseType() {
  Type T;
  if (accept(TokKind::KwInt))
    T.B = Type::Base::Int;
  else if (accept(TokKind::KwChar))
    T.B = Type::Base::Char;
  else if (accept(TokKind::KwVoid))
    T.B = Type::Base::Void;
  else
    fail(format("line %d: expected a type", peek().Line));
  while (accept(TokKind::Star))
    ++T.PtrDepth;
  return T;
}

bool Parser::run() {
  while (!at(TokKind::End) && !Failed)
    parseTopLevel();
  return !Failed;
}

bool Parser::parseTopLevel() {
  int Line = peek().Line;
  Type T = parseBaseType();
  if (Failed)
    return false;
  if (!at(TokKind::Ident)) {
    fail(format("line %d: expected a name", peek().Line));
    return false;
  }
  std::string Name = take().Text;

  if (at(TokKind::LParen)) {
    // Function definition or prototype.
    take();
    FuncDecl F;
    F.Ret = T;
    F.Name = Name;
    F.Line = Line;
    if (!at(TokKind::RParen)) {
      do {
        if (accept(TokKind::KwVoid) && at(TokKind::RParen))
          break; // f(void)
        Type PT = parseBaseType();
        std::string PName;
        if (at(TokKind::Ident))
          PName = take().Text;
        // Array parameters decay to pointers.
        while (accept(TokKind::LBracket)) {
          if (at(TokKind::IntLit))
            take();
          expect(TokKind::RBracket, "']'");
          ++PT.PtrDepth;
        }
        F.Params.push_back({PT, PName});
      } while (accept(TokKind::Comma) && !Failed);
    }
    expect(TokKind::RParen, "')'");
    if (accept(TokKind::Semi)) {
      Out.Funcs.push_back(std::move(F)); // prototype
      return !Failed;
    }
    F.Body = parseBlock();
    Out.Funcs.push_back(std::move(F));
    return !Failed;
  }

  // Global variable(s).
  while (true) {
    GlobalDecl G;
    G.T = T;
    G.Name = Name;
    G.Line = Line;
    while (accept(TokKind::LBracket)) {
      if (at(TokKind::IntLit)) {
        G.T.Dims.push_back(static_cast<int>(take().IntValue));
      } else {
        G.T.Dims.push_back(0); // size from initializer
      }
      expect(TokKind::RBracket, "']'");
    }
    if (accept(TokKind::Assign))
      parseGlobalInit(G);
    Out.Globals.push_back(std::move(G));
    if (accept(TokKind::Comma)) {
      if (!at(TokKind::Ident)) {
        fail(format("line %d: expected a name", peek().Line));
        return false;
      }
      Name = take().Text;
      continue;
    }
    expect(TokKind::Semi, "';'");
    return !Failed;
  }
}

bool Parser::parseGlobalInit(GlobalDecl &G) {
  G.HasInit = true;
  if (at(TokKind::StrLit)) {
    G.IsStrInit = true;
    G.StrInit = take().Text;
    return true;
  }
  if (accept(TokKind::LBrace)) {
    if (at(TokKind::StrLit)) {
      G.IsStrListInit = true;
      do
        G.StrListInit.push_back(take().Text);
      while (accept(TokKind::Comma) && at(TokKind::StrLit));
      expect(TokKind::RBrace, "'}'");
      return true;
    }
    do {
      if (at(TokKind::RBrace))
        break;
      bool Negative = accept(TokKind::Minus);
      if (!at(TokKind::IntLit)) {
        fail(format("line %d: expected a constant initializer", peek().Line));
        return false;
      }
      int64_t V = take().IntValue;
      G.IntInit.push_back(Negative ? -V : V);
    } while (accept(TokKind::Comma));
    expect(TokKind::RBrace, "'}'");
    return true;
  }
  bool Negative = accept(TokKind::Minus);
  if (!at(TokKind::IntLit)) {
    fail(format("line %d: expected a constant initializer", peek().Line));
    return false;
  }
  int64_t V = take().IntValue;
  G.IntInit.push_back(Negative ? -V : V);
  return true;
}

std::unique_ptr<Stmt> Parser::parseBlock() {
  auto S = std::make_unique<Stmt>();
  S->K = Stmt::Kind::Block;
  S->Line = peek().Line;
  if (!expect(TokKind::LBrace, "'{'"))
    return S;
  while (!at(TokKind::RBrace) && !at(TokKind::End) && !Failed)
    S->Body.push_back(parseStmt());
  expect(TokKind::RBrace, "'}'");
  return S;
}

std::unique_ptr<Stmt> Parser::parseDecl() {
  // One declaration statement, possibly declaring several names; returns a
  // Block of Decl statements when more than one.
  int Line = peek().Line;
  Type Base = parseBaseType();
  std::vector<std::unique_ptr<Stmt>> Decls;
  do {
    Type T = Base;
    while (accept(TokKind::Star))
      ++T.PtrDepth;
    auto D = std::make_unique<Stmt>();
    D->K = Stmt::Kind::Decl;
    D->Line = Line;
    if (!at(TokKind::Ident)) {
      fail(format("line %d: expected a name", peek().Line));
      return D;
    }
    D->Name = take().Text;
    while (accept(TokKind::LBracket)) {
      if (at(TokKind::IntLit))
        T.Dims.push_back(static_cast<int>(take().IntValue));
      else
        fail(format("line %d: local arrays need a constant size",
                    peek().Line));
      expect(TokKind::RBracket, "']'");
    }
    D->DeclType = T;
    if (accept(TokKind::Assign))
      D->InitExpr = parseAssign();
    Decls.push_back(std::move(D));
  } while (accept(TokKind::Comma) && !Failed);
  expect(TokKind::Semi, "';'");
  if (Decls.size() == 1)
    return std::move(Decls.front());
  auto Group = std::make_unique<Stmt>();
  Group->K = Stmt::Kind::DeclGroup;
  Group->Line = Line;
  Group->Body = std::move(Decls);
  return Group;
}

std::unique_ptr<Stmt> Parser::parseStmt() {
  auto S = std::make_unique<Stmt>();
  S->Line = peek().Line;
  const Level Nested(*this);
  if (!Nested.Ok)
    return S;

  if (atTypeKeyword())
    return parseDecl();

  if (at(TokKind::LBrace))
    return parseBlock();

  if (accept(TokKind::Semi)) {
    S->K = Stmt::Kind::Empty;
    return S;
  }

  if (accept(TokKind::KwIf)) {
    S->K = Stmt::Kind::If;
    expect(TokKind::LParen, "'('");
    S->E = parseExpr();
    expect(TokKind::RParen, "')'");
    S->S1 = parseStmt();
    if (accept(TokKind::KwElse))
      S->S2 = parseStmt();
    return S;
  }

  if (accept(TokKind::KwWhile)) {
    S->K = Stmt::Kind::While;
    expect(TokKind::LParen, "'('");
    S->E = parseExpr();
    expect(TokKind::RParen, "')'");
    S->S1 = parseStmt();
    return S;
  }

  if (accept(TokKind::KwDo)) {
    S->K = Stmt::Kind::DoWhile;
    S->S1 = parseStmt();
    expect(TokKind::KwWhile, "'while'");
    expect(TokKind::LParen, "'('");
    S->E = parseExpr();
    expect(TokKind::RParen, "')'");
    expect(TokKind::Semi, "';'");
    return S;
  }

  if (accept(TokKind::KwFor)) {
    S->K = Stmt::Kind::For;
    expect(TokKind::LParen, "'('");
    if (!at(TokKind::Semi))
      S->E2 = parseExpr();
    expect(TokKind::Semi, "';'");
    if (!at(TokKind::Semi))
      S->E = parseExpr();
    expect(TokKind::Semi, "';'");
    if (!at(TokKind::RParen))
      S->E3 = parseExpr();
    expect(TokKind::RParen, "')'");
    S->S1 = parseStmt();
    return S;
  }

  if (accept(TokKind::KwSwitch)) {
    S->K = Stmt::Kind::Switch;
    expect(TokKind::LParen, "'('");
    S->E = parseExpr();
    expect(TokKind::RParen, "')'");
    expect(TokKind::LBrace, "'{'");
    while (!at(TokKind::RBrace) && !at(TokKind::End) && !Failed) {
      if (accept(TokKind::KwCase)) {
        Stmt::SwitchCase C;
        bool Negative = accept(TokKind::Minus);
        if (!at(TokKind::IntLit)) {
          fail(format("line %d: expected a case constant", peek().Line));
          break;
        }
        C.Value = take().IntValue;
        if (Negative)
          C.Value = -C.Value;
        expect(TokKind::Colon, "':'");
        C.BodyIndex = static_cast<int>(S->Body.size());
        S->Cases.push_back(C);
        continue;
      }
      if (accept(TokKind::KwDefault)) {
        expect(TokKind::Colon, "':'");
        Stmt::SwitchCase C;
        C.IsDefault = true;
        C.BodyIndex = static_cast<int>(S->Body.size());
        S->Cases.push_back(C);
        continue;
      }
      S->Body.push_back(parseStmt());
    }
    expect(TokKind::RBrace, "'}'");
    return S;
  }

  if (accept(TokKind::KwBreak)) {
    S->K = Stmt::Kind::Break;
    expect(TokKind::Semi, "';'");
    return S;
  }
  if (accept(TokKind::KwContinue)) {
    S->K = Stmt::Kind::Continue;
    expect(TokKind::Semi, "';'");
    return S;
  }
  if (accept(TokKind::KwReturn)) {
    S->K = Stmt::Kind::Return;
    if (!at(TokKind::Semi))
      S->E = parseExpr();
    expect(TokKind::Semi, "';'");
    return S;
  }
  if (accept(TokKind::KwGoto)) {
    S->K = Stmt::Kind::Goto;
    if (at(TokKind::Ident))
      S->Name = take().Text;
    else
      fail(format("line %d: expected a label", peek().Line));
    expect(TokKind::Semi, "';'");
    return S;
  }

  // Label: "ident :" (but not "ident ? ..."), else expression statement.
  if (at(TokKind::Ident) && peek(1).Kind == TokKind::Colon) {
    S->K = Stmt::Kind::Label;
    S->Name = take().Text;
    take(); // ':'
    return S;
  }

  S->K = Stmt::Kind::ExprStmt;
  S->E = parseExpr();
  expect(TokKind::Semi, "';'");
  return S;
}

std::unique_ptr<Expr> Parser::parseExpr() {
  // No comma operator; the benchmarks do not need it.
  return parseAssign();
}

static bool compoundOpFor(TokKind K, BinaryOp &Op) {
  switch (K) {
  case TokKind::PlusEq:
    Op = BinaryOp::Add;
    return true;
  case TokKind::MinusEq:
    Op = BinaryOp::Sub;
    return true;
  case TokKind::StarEq:
    Op = BinaryOp::Mul;
    return true;
  case TokKind::SlashEq:
    Op = BinaryOp::Div;
    return true;
  case TokKind::PercentEq:
    Op = BinaryOp::Rem;
    return true;
  case TokKind::AmpEq:
    Op = BinaryOp::And;
    return true;
  case TokKind::PipeEq:
    Op = BinaryOp::Or;
    return true;
  case TokKind::CaretEq:
    Op = BinaryOp::Xor;
    return true;
  case TokKind::ShlEq:
    Op = BinaryOp::Shl;
    return true;
  case TokKind::ShrEq:
    Op = BinaryOp::Shr;
    return true;
  default:
    return false;
  }
}

std::unique_ptr<Expr> Parser::parseAssign() {
  auto LHS = parseCond();
  BinaryOp CompoundOp;
  if (at(TokKind::Assign)) {
    int Line = take().Line;
    auto E = std::make_unique<Expr>();
    E->K = Expr::Kind::Assign;
    E->Line = Line;
    E->A = std::move(LHS);
    if (const Level Rhs(*this); Rhs.Ok)
      E->B = parseAssign();
    return E;
  }
  if (compoundOpFor(peek().Kind, CompoundOp)) {
    int Line = take().Line;
    auto E = std::make_unique<Expr>();
    E->K = Expr::Kind::Assign;
    E->Line = Line;
    E->HasCompoundOp = true;
    E->BOp = CompoundOp;
    E->A = std::move(LHS);
    if (const Level Rhs(*this); Rhs.Ok)
      E->B = parseAssign();
    return E;
  }
  return LHS;
}

std::unique_ptr<Expr> Parser::parseCond() {
  auto C = parseBinary(0);
  if (!accept(TokKind::Question))
    return C;
  auto E = std::make_unique<Expr>();
  E->K = Expr::Kind::Cond;
  E->Line = peek().Line;
  E->A = std::move(C);
  const Level Arms(*this);
  if (!Arms.Ok)
    return E;
  E->B = parseAssign();
  expect(TokKind::Colon, "':'");
  E->C = parseCond();
  return E;
}

namespace {
struct OpInfo {
  TokKind Tok;
  BinaryOp Op;
  int Prec;
};
} // namespace

static const OpInfo BinaryOps[] = {
    {TokKind::PipePipe, BinaryOp::LogOr, 1},
    {TokKind::AmpAmp, BinaryOp::LogAnd, 2},
    {TokKind::Pipe, BinaryOp::Or, 3},
    {TokKind::Caret, BinaryOp::Xor, 4},
    {TokKind::Amp, BinaryOp::And, 5},
    {TokKind::EqEq, BinaryOp::Eq, 6},
    {TokKind::NotEq, BinaryOp::Ne, 6},
    {TokKind::Less, BinaryOp::Lt, 7},
    {TokKind::LessEq, BinaryOp::Le, 7},
    {TokKind::Greater, BinaryOp::Gt, 7},
    {TokKind::GreaterEq, BinaryOp::Ge, 7},
    {TokKind::Shl, BinaryOp::Shl, 8},
    {TokKind::Shr, BinaryOp::Shr, 8},
    {TokKind::Plus, BinaryOp::Add, 9},
    {TokKind::Minus, BinaryOp::Sub, 9},
    {TokKind::Star, BinaryOp::Mul, 10},
    {TokKind::Slash, BinaryOp::Div, 10},
    {TokKind::Percent, BinaryOp::Rem, 10},
};

std::unique_ptr<Expr> Parser::parseBinary(int MinPrec) {
  auto LHS = parseUnary();
  const int Spine = Depth; // each operator deepens the chain's left spine
  while (!Failed) {
    const OpInfo *Found = nullptr;
    for (const OpInfo &Info : BinaryOps)
      if (at(Info.Tok) && Info.Prec >= MinPrec) {
        Found = &Info;
        break;
      }
    if (!Found)
      break;
    int Line = take().Line;
    if (!descend())
      break;
    auto RHS = parseBinary(Found->Prec + 1);
    auto E = std::make_unique<Expr>();
    E->K = Expr::Kind::Binary;
    E->Line = Line;
    E->BOp = Found->Op;
    E->A = std::move(LHS);
    E->B = std::move(RHS);
    LHS = std::move(E);
  }
  Depth = Spine;
  return LHS;
}

std::unique_ptr<Expr> Parser::parseUnary() {
  auto unary = [&](UnaryOp Op) {
    int Line = take().Line;
    auto E = std::make_unique<Expr>();
    E->K = Expr::Kind::Unary;
    E->Line = Line;
    E->UOp = Op;
    if (const Level Operand(*this); Operand.Ok)
      E->A = parseUnary();
    return E;
  };
  if (at(TokKind::Minus))
    return unary(UnaryOp::Neg);
  if (at(TokKind::Tilde))
    return unary(UnaryOp::BitNot);
  if (at(TokKind::Not))
    return unary(UnaryOp::LogNot);
  if (at(TokKind::Star))
    return unary(UnaryOp::Deref);
  if (at(TokKind::Amp))
    return unary(UnaryOp::AddrOf);
  if (at(TokKind::PlusPlus) || at(TokKind::MinusMinus)) {
    bool Inc = at(TokKind::PlusPlus);
    int Line = take().Line;
    auto E = std::make_unique<Expr>();
    E->K = Expr::Kind::IncDec;
    E->Line = Line;
    E->IsIncrement = Inc;
    E->IsPrefix = true;
    if (const Level Operand(*this); Operand.Ok)
      E->A = parseUnary();
    return E;
  }
  return parsePostfix();
}

std::unique_ptr<Expr> Parser::parsePostfix() {
  auto E = parsePrimary();
  const int Spine = Depth; // each postfix operator deepens the spine
  while (!Failed) {
    const bool Postfix = at(TokKind::LBracket) || at(TokKind::PlusPlus) ||
                         at(TokKind::MinusMinus);
    if (!Postfix || !descend())
      break;
    if (accept(TokKind::LBracket)) {
      auto Idx = std::make_unique<Expr>();
      Idx->K = Expr::Kind::Index;
      Idx->Line = peek().Line;
      Idx->A = std::move(E);
      Idx->B = parseExpr();
      expect(TokKind::RBracket, "']'");
      E = std::move(Idx);
      continue;
    }
    bool Inc = at(TokKind::PlusPlus);
    take();
    auto P = std::make_unique<Expr>();
    P->K = Expr::Kind::IncDec;
    P->Line = peek().Line;
    P->IsIncrement = Inc;
    P->IsPrefix = false;
    P->A = std::move(E);
    E = std::move(P);
  }
  Depth = Spine;
  return E;
}

std::unique_ptr<Expr> Parser::parsePrimary() {
  auto E = std::make_unique<Expr>();
  E->Line = peek().Line;
  if (at(TokKind::IntLit)) {
    E->K = Expr::Kind::IntLit;
    E->IntValue = take().IntValue;
    return E;
  }
  if (at(TokKind::StrLit)) {
    E->K = Expr::Kind::StrLit;
    E->Name = take().Text;
    return E;
  }
  if (accept(TokKind::LParen)) {
    const Level Parenthesized(*this);
    if (!Parenthesized.Ok)
      return E;
    auto Inner = parseExpr();
    expect(TokKind::RParen, "')'");
    return Inner;
  }
  if (at(TokKind::Ident)) {
    std::string Name = take().Text;
    if (accept(TokKind::LParen)) {
      E->K = Expr::Kind::Call;
      E->Name = std::move(Name);
      const Level Args(*this);
      if (Args.Ok && !at(TokKind::RParen)) {
        do
          E->Args.push_back(parseAssign());
        while (accept(TokKind::Comma) && !Failed);
      }
      expect(TokKind::RParen, "')'");
      return E;
    }
    E->K = Expr::Kind::Var;
    E->Name = std::move(Name);
    return E;
  }
  fail(format("line %d: expected an expression", peek().Line));
  E->K = Expr::Kind::IntLit;
  return E;
}

} // namespace

bool frontend::parse(const std::string &Source, TranslationUnit &Out,
                     std::string &Error) {
  std::vector<Token> Tokens;
  if (!tokenize(Source, Tokens, Error))
    return false;
  Parser P(std::move(Tokens), Out, Error);
  return P.run();
}
