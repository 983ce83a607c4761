//===- BenchReport.cpp - BENCH_history.jsonl trend analysis ---------------===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace coderep::bench {
namespace {

/// The machine-normalized ratios that gate the report, with the direction
/// a healthy run moves them. Everything else in the history is absolute
/// (microseconds, instruction counts) and only informs.
struct GateSpec {
  const char *Name;
  bool LowerIsBetter;
};
constexpr GateSpec Gates[] = {
    {"reference_speedup", /*LowerIsBetter=*/false},
    {"obs_overhead", /*LowerIsBetter=*/true},
};

const GateSpec *gateFor(const std::string &Name) {
  for (const GateSpec &G : Gates)
    if (Name == G.Name)
      return &G;
  return nullptr;
}

/// Minimal parser for one flat JSON object. Values may be strings,
/// numbers, true/false/null, or nested objects/arrays (skipped). This is
/// exactly the shape bench_compile writes; anything else is an error.
class LineParser {
public:
  LineParser(const char *P, const char *End) : P(P), End(End) {}

  bool parse(BenchRecord &R, std::string &Err) {
    skipWs();
    if (!eat('{'))
      return fail(Err, "expected '{'");
    skipWs();
    if (eat('}'))
      return finish(Err);
    for (;;) {
      std::string Key;
      if (!parseString(Key))
        return fail(Err, "expected key string");
      skipWs();
      if (!eat(':'))
        return fail(Err, "expected ':'");
      skipWs();
      if (!parseValue(R, Key))
        return fail(Err, "bad value for key '" + Key + "'");
      skipWs();
      if (eat(',')) {
        skipWs();
        continue;
      }
      if (eat('}'))
        return finish(Err);
      return fail(Err, "expected ',' or '}'");
    }
  }

private:
  const char *P, *End;

  bool finish(std::string &Err) {
    skipWs();
    if (P != End)
      return fail(Err, "trailing characters after object");
    return true;
  }

  bool fail(std::string &Err, std::string Why) {
    Err = std::move(Why);
    return false;
  }

  void skipWs() {
    while (P != End && (*P == ' ' || *P == '\t' || *P == '\r'))
      ++P;
  }

  bool eat(char C) {
    if (P != End && *P == C) {
      ++P;
      return true;
    }
    return false;
  }

  bool parseString(std::string &Out) {
    if (!eat('"'))
      return false;
    Out.clear();
    while (P != End && *P != '"') {
      char C = *P++;
      if (C == '\\' && P != End) {
        char E = *P++;
        switch (E) {
        case 'n': C = '\n'; break;
        case 't': C = '\t'; break;
        case 'r': C = '\r'; break;
        default: C = E; break; // \" \\ \/ and anything exotic: literal.
        }
      }
      Out.push_back(C);
    }
    return eat('"');
  }

  bool parseValue(BenchRecord &R, const std::string &Key) {
    if (P == End)
      return false;
    char C = *P;
    if (C == '"') {
      std::string S;
      if (!parseString(S))
        return false;
      R.Strs[Key] = std::move(S);
      return true;
    }
    if (C == '{' || C == '[')
      return skipNested();
    if (std::strncmp(P, "true", 4) == 0 && End - P >= 4) {
      P += 4;
      R.Nums[Key] = 1;
      return true;
    }
    if (std::strncmp(P, "false", 5) == 0 && End - P >= 5) {
      P += 5;
      R.Nums[Key] = 0;
      return true;
    }
    if (std::strncmp(P, "null", 4) == 0 && End - P >= 4) {
      P += 4;
      return true; // present but valueless: drop it
    }
    char *NumEnd = nullptr;
    double V = std::strtod(P, &NumEnd);
    if (NumEnd == P || NumEnd > End)
      return false;
    P = NumEnd;
    R.Nums[Key] = V;
    return true;
  }

  /// Skips a balanced {...} or [...], honoring strings.
  bool skipNested() {
    int Depth = 0;
    while (P != End) {
      char C = *P;
      if (C == '"') {
        std::string Ignored;
        if (!parseString(Ignored))
          return false;
        continue;
      }
      ++P;
      if (C == '{' || C == '[')
        ++Depth;
      else if (C == '}' || C == ']') {
        if (--Depth == 0)
          return true;
      }
    }
    return false;
  }
};

std::string shaOf(const BenchRecord &R) {
  auto It = R.Strs.find("git_sha");
  return It == R.Strs.end() ? std::string() : It->second;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// Formats a metric value: integers plainly, ratios with three decimals.
std::string fmtValue(double V) {
  char Buf[64];
  if (V == std::floor(V) && std::fabs(V) < 1e15)
    std::snprintf(Buf, sizeof(Buf), "%.0f", V);
  else
    std::snprintf(Buf, sizeof(Buf), "%.3f", V);
  return Buf;
}

} // namespace

void ReportOptions::addFlags(support::FlagTable &Flags) {
  Flags.real("threshold", ThresholdPct, "PCT", "gate at PCT% (default 10)", 0,
             HUGE_VAL, /*MinExclusive=*/true);
  Flags.count("window", Window, "baseline git SHAs (default 5)", 1);
}

bool parseBenchHistory(const std::string &Text,
                       std::vector<BenchRecord> &Records, std::string &Err) {
  size_t LineNo = 0, Pos = 0;
  while (Pos <= Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    size_t LineEnd = Nl == std::string::npos ? Text.size() : Nl;
    ++LineNo;
    const char *B = Text.data() + Pos, *E = Text.data() + LineEnd;
    while (B != E && (*B == ' ' || *B == '\t' || *B == '\r'))
      ++B;
    if (B != E) {
      BenchRecord R;
      std::string LineErr;
      if (!LineParser(B, E).parse(R, LineErr)) {
        Err = "line " + std::to_string(LineNo) + ": " + LineErr;
        return false;
      }
      Records.push_back(std::move(R));
    }
    if (Nl == std::string::npos)
      break;
    Pos = Nl + 1;
  }
  return true;
}

BenchReportResult analyzeHistory(const std::vector<BenchRecord> &Records,
                                 const ReportOptions &Opts) {
  BenchReportResult R;
  R.RecordCount = Records.size();
  if (Records.empty())
    return R;

  const BenchRecord &Last = Records.back();
  R.LastSha = shaOf(Last);
  auto Date = Last.Strs.find("date");
  if (Date != Last.Strs.end())
    R.LastDate = Date->second;

  // The window: the Opts.Window most recent SHAs other than the last
  // record's own, each with every record measured at it.
  std::map<std::string, std::vector<const BenchRecord *>> Window;
  for (size_t I = Records.size() - 1; I-- > 0;) {
    std::string Sha = shaOf(Records[I]);
    if (Sha == R.LastSha ||
        (!Window.count(Sha) && Window.size() == size_t(Opts.Window)))
      continue;
    Window[Sha].push_back(&Records[I]);
  }
  R.WindowUsed = Window.size();

  for (const auto &KV : Last.Nums) {
    MetricRow Row;
    Row.Name = KV.first;
    Row.Last = KV.second;
    if (const GateSpec *G = gateFor(Row.Name)) {
      Row.Gated = true;
      Row.LowerIsBetter = G->LowerIsBetter;
    }
    std::vector<double> PerSha;
    for (const auto &[Sha, Group] : Window) {
      std::vector<double> Values;
      for (const BenchRecord *Rec : Group) {
        auto It = Rec->Nums.find(Row.Name);
        if (It != Rec->Nums.end())
          Values.push_back(It->second);
      }
      if (!Values.empty())
        PerSha.push_back(median(std::move(Values)));
    }
    if (!PerSha.empty()) {
      Row.HasBaseline = true;
      Row.Baseline = median(std::move(PerSha));
      if (Row.Baseline != 0.0)
        Row.DeltaPct = 100.0 * (Row.Last - Row.Baseline) / Row.Baseline;
      if (Row.Gated) {
        double T = Opts.ThresholdPct;
        Row.Flagged = Row.LowerIsBetter ? Row.DeltaPct > T : Row.DeltaPct < -T;
      }
    }
    if (Row.Flagged)
      R.Flagged.push_back(Row.Name);
    R.Rows.push_back(std::move(Row));
  }
  return R;
}

std::string renderMarkdown(const BenchReportResult &R,
                           const ReportOptions &Opts) {
  std::string Out;
  char Buf[256];
  Out += "# Bench history report\n\n";
  std::snprintf(Buf, sizeof(Buf),
                "Last run: `%s` (%s), compared against the median of the "
                "previous %zu git SHA(s), one value per SHA; %zu record(s) "
                "total.\n\n",
                R.LastSha.empty() ? "?" : R.LastSha.c_str(),
                R.LastDate.empty() ? "?" : R.LastDate.c_str(), R.WindowUsed,
                R.RecordCount);
  Out += Buf;
  if (R.Rows.empty()) {
    Out += "No metrics to report.\n";
    return Out;
  }
  Out += "| Metric | Baseline | Last | Delta | Status |\n";
  Out += "|---|---:|---:|---:|---|\n";
  for (const MetricRow &Row : R.Rows) {
    const char *Status = Row.Flagged          ? "**REGRESSION**"
                         : !Row.HasBaseline   ? "new"
                         : Row.Gated          ? "ok"
                                              : "info";
    std::string Delta = "-";
    if (Row.HasBaseline) {
      char D[32];
      std::snprintf(D, sizeof(D), "%+.1f%%", Row.DeltaPct);
      Delta = D;
    }
    std::snprintf(Buf, sizeof(Buf), "| %s | %s | %s | %s | %s |\n",
                  Row.Name.c_str(),
                  Row.HasBaseline ? fmtValue(Row.Baseline).c_str() : "-",
                  fmtValue(Row.Last).c_str(), Delta.c_str(), Status);
    Out += Buf;
  }
  Out += "\n";
  if (R.Flagged.empty()) {
    std::snprintf(Buf, sizeof(Buf),
                  "Verdict: **ok** - no gated metric moved more than %.0f%% "
                  "the wrong way.\n",
                  Opts.ThresholdPct);
  } else {
    std::string Names;
    for (const std::string &N : R.Flagged) {
      if (!Names.empty())
        Names += ", ";
      Names += N;
    }
    std::snprintf(Buf, sizeof(Buf),
                  "Verdict: **REGRESSION** - %zu gated metric(s) beyond the "
                  "%.0f%% threshold: %s.\n",
                  R.Flagged.size(), Opts.ThresholdPct, Names.c_str());
  }
  Out += Buf;
  return Out;
}

void seedSyntheticRegression(std::vector<BenchRecord> &Records) {
  if (Records.empty())
    return;
  BenchRecord Bad = Records.back();
  Bad.Strs["git_sha"] = "synthetic";
  for (const GateSpec &G : Gates) {
    auto It = Bad.Nums.find(G.Name);
    if (It == Bad.Nums.end())
      continue;
    // Push 50% the wrong way: far past any sane threshold.
    It->second *= G.LowerIsBetter ? 1.5 : 0.5;
  }
  Records.push_back(std::move(Bad));
}

} // namespace coderep::bench
