//===- CliContractTest.cpp - Every binary rejects bad flags the same way --===//
//
// Runs each example and bench binary (micro_algorithms excepted: Google
// Benchmark parses its flags) with an unknown flag and with a malformed
// value for each of its typed flags. Every run must exit 2 and print a
// usage error naming the flag, and must leave its empty working directory
// empty: parsing ends before any work starts, so no daemon, socket, worker
// thread or output file (bench_compile's BENCH_history.jsonl included)
// ever appears. fuzz_compile is never run with a negative --jobs; see
// FlagTableTest for that value.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace fs = std::filesystem;

namespace {

using Args = std::vector<std::string>;

struct Binary {
  const char *Dir; ///< build directory holding it
  const char *Name;
  std::vector<Args> Malformed; ///< each must be a usage error
};

/// Names the test parameter in gtest's output.
void PrintTo(const Binary &B, std::ostream *OS) { *OS << B.Name; }

Args concat(std::initializer_list<Args> Parts) {
  Args Out;
  for (const Args &P : Parts)
    Out.insert(Out.end(), P.begin(), P.end());
  return Out;
}

const Args Obs = {"--trace-out=",      "--metrics-out=", "--profile-out=",
                  "--profile-folded=", "--journal-out=", "--dot-dir="};
const Args Pipe = {"--jobs=abc", "--jobs", "--pipeline-cache=",
                   "--cache-budget=1.5G"};
const Args Verify = {"--verify=maybe", "--verify-seed=12abc",
                     "--verify-inputs=abc", "--verify-inputs=0"};

/// One single-argument case per element of \p Flags.
std::vector<Args> each(const Args &Flags) {
  std::vector<Args> Out;
  for (const std::string &F : Flags)
    Out.push_back({F});
  return Out;
}

std::vector<Args> reportCases() {
  Args Flags = {"--window=2.5", "--markdown-out=", "--self-check=1"};
  for (const char *Bad : {"abc", "10x", "-1", "", "0", " 5", "nan"}) {
    Flags.push_back(std::string("--threshold=") + Bad);
    Flags.push_back(std::string("--window=") + Bad);
  }
  return each(Flags);
}

std::vector<Binary> binaries() {
  const std::string Queens =
      std::string(CODEREP_SOURCE_DIR) + "/bench/programs/queens.mc";
  std::vector<Binary> Out = {
      {CODEREP_EXAMPLES_DIR, "minic_compiler",
       each(concat({{"--target=x86", "--level=fast", "--input=", "--dump=yes",
                     "--cache=1"},
                    Pipe, Obs, Verify}))},
      {CODEREP_EXAMPLES_DIR, "codrepd",
       each(concat({{"--socket="}, Pipe, Obs, Verify}))},
      {CODEREP_EXAMPLES_DIR, "loadgen",
       each({"--socket=", "--requests=0", "--jobs=abc", "--jobs=0",
             "--seeds=-1", "--min-hit-rate=1.5", "--check=1"})},
      {CODEREP_EXAMPLES_DIR, "fuzz_compile",
       each(concat({{"--seeds=10x", "--jobs=abc", "--target=x86",
                     "--level=fast", "--repro-dir=", "--suite=1"},
                    Obs, Verify}))},
      {CODEREP_EXAMPLES_DIR, "inspect_replication", each(concat({Pipe, Obs}))},
      {CODEREP_EXAMPLES_DIR, "cache_study", each(concat({Pipe, Obs}))},
      {CODEREP_EXAMPLES_DIR, "quickstart", each(Obs)},
      {CODEREP_BENCH_DIR, "paper_tables", each(Obs)},
      {CODEREP_BENCH_DIR, "bench_compile",
       each(concat({{"--jobs=1"}, Obs}))},
      {CODEREP_BENCH_DIR, "bench_report", reportCases()},
  };
  // The once-silent misparse, spelled as a user would run it.
  Out[0].Malformed.push_back(
      {Queens, "--verify=final", "--verify-inputs=abc"});
  for (Binary &B : Out)
    B.Malformed.insert(B.Malformed.begin(), {"--no-such-flag"});
  return Out;
}

std::string shellQuote(const std::string &S) {
  std::string Out = "'";
  for (char C : S)
    Out += C == '\'' ? std::string("'\\''") : std::string(1, C);
  return Out + "'";
}

class CliContract : public testing::TestWithParam<Binary> {};

TEST_P(CliContract, RejectsUnknownAndMalformedFlags) {
  const Binary &B = GetParam();
  const std::string Exe = std::string(B.Dir) + "/" + B.Name;
  ASSERT_TRUE(fs::exists(Exe)) << Exe;
  int Case = 0;
  for (const Args &A : B.Malformed) {
    const fs::path Cwd =
        fs::temp_directory_path() / ("coderep_cli_" + std::to_string(getpid()) +
                                     "_" + B.Name + "_" +
                                     std::to_string(Case++));
    fs::remove_all(Cwd);
    fs::create_directories(Cwd);
    std::string Cmd = "cd " + shellQuote(Cwd.string()) + " && exec " +
                      shellQuote(Exe);
    for (const std::string &Arg : A)
      Cmd += " " + shellQuote(Arg);
    Cmd += " 2>&1 >/dev/null"; // capture stderr only

    std::string Stderr;
    std::FILE *P = popen(Cmd.c_str(), "r");
    ASSERT_NE(P, nullptr) << Cmd;
    char Buf[512];
    while (size_t N = std::fread(Buf, 1, sizeof(Buf), P))
      Stderr.append(Buf, N);
    const int Status = pclose(P);

    // The flag the error must name: the last argument, up to its '='.
    const std::string &Last = A.back();
    const std::string Flag = Last.substr(0, Last.find('='));
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 2)
        << Cmd << "\nstatus " << Status << "\n" << Stderr;
    EXPECT_NE(Stderr.find("usage: " + std::string(B.Name)), std::string::npos)
        << Cmd << "\n" << Stderr;
    EXPECT_NE(Stderr.find(Flag), std::string::npos) << Cmd << "\n" << Stderr;
    EXPECT_TRUE(fs::is_empty(Cwd)) << Cmd << " left files behind";
    fs::remove_all(Cwd);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBinaries, CliContract, testing::ValuesIn(binaries()),
    [](const testing::TestParamInfo<Binary> &Info) {
      return std::string(Info.param.Name);
    });

} // namespace
