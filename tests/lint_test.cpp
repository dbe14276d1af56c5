// Self-tests for locpriv-lint: every rule's violating fixture is flagged,
// its clean twin passes, suppressions work in both placements, a typo'd
// suppression is itself an error, and the live tree is clean (the same
// invariant the locpriv_lint_tree ctest case enforces via the binary).
//
// v2 additions: lexer edge cases (raw strings, line continuations,
// stringified macros), flow-rule fixtures (eintr-retry, fd-guard,
// blocking-under-lock, seq-narrowing), cross-file fixtures (signal-safety
// plus the verb-exhaustive mini-trees), JSON output, and a completeness
// self-test that fails when any registered rule lacks a firing fixture.
#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/index.hpp"
#include "lint/lexer.hpp"

namespace {

using locpriv::lint::Finding;
using locpriv::lint::lint_source;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(LOCPRIV_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> rule_names(const std::vector<Finding>& findings) {
  std::vector<std::string> names;
  for (const Finding& finding : findings) names.push_back(finding.rule);
  return names;
}

// Lints a fixture under a neutral library-code label (no path or main()
// exemptions unless the fixture content itself provides one).
std::vector<Finding> lint_fixture(const std::string& name) {
  return lint_source("src/sample.cpp", read_fixture(name));
}

TEST(LocprivLint, EveryRuleFlagsItsViolationAndAcceptsItsCleanTwin) {
  const struct {
    const char* rule;
    const char* bad;
    const char* clean;
  } kCases[] = {
      {"raw-write", "raw_write_bad.cc", "raw_write_clean.cc"},
      {"nondet-rng", "nondet_rng_bad.cc", "nondet_rng_clean.cc"},
      {"unordered-serialize", "unordered_serialize_bad.cc",
       "unordered_serialize_clean.cc"},
      {"swallowed-catch", "swallowed_catch_bad.cc", "swallowed_catch_clean.cc"},
      {"exit-call", "exit_call_bad.cc", "exit_call_clean.cc"},
      {"raw-process", "raw_process_bad.cc", "raw_process_clean.cc"},
      {"eintr-retry", "eintr_retry_bad.cc", "eintr_retry_clean.cc"},
      {"fd-guard", "fd_guard_bad.cc", "fd_guard_clean.cc"},
      {"signal-safety", "signal_safety_bad.cc", "signal_safety_clean.cc"},
      {"blocking-under-lock", "blocking_under_lock_bad.cc",
       "blocking_under_lock_clean.cc"},
  };
  for (const auto& test_case : kCases) {
    const auto bad = lint_fixture(test_case.bad);
    ASSERT_EQ(bad.size(), 1u) << test_case.bad;
    EXPECT_EQ(bad[0].rule, test_case.rule) << test_case.bad;
    EXPECT_GT(bad[0].line, 0u) << test_case.bad;
    EXPECT_EQ(bad[0].file, "src/sample.cpp");
    EXPECT_TRUE(lint_fixture(test_case.clean).empty()) << test_case.clean;
  }
}

TEST(LocprivLint, JustifiedSuppressionsSilenceEveryFlowRule) {
  const char* kSuppressed[] = {
      "eintr_retry_suppressed.cc",    "fd_guard_suppressed.cc",
      "signal_safety_suppressed.cc",  "blocking_under_lock_suppressed.cc",
  };
  for (const char* name : kSuppressed)
    EXPECT_TRUE(lint_fixture(name).empty()) << name;
  EXPECT_TRUE(lint_source("src/service/sample.cpp",
                          read_fixture("seq_narrowing_suppressed.cc"))
                  .empty());
  EXPECT_TRUE(lint_source("src/poi/sample.cpp",
                          read_fixture("linear_spatial_scan_suppressed.cc"))
                  .empty());
}

TEST(LocprivLint, HarnessDirectoryMayWriteRaw) {
  // The same violating content is legal under src/core/harness/ — that is
  // where the atomic-writer implementation itself lives.
  const std::string content = read_fixture("raw_write_bad.cc");
  EXPECT_EQ(lint_source("src/sample.cpp", content).size(), 1u);
  EXPECT_TRUE(lint_source("src/core/harness/sample.cpp", content).empty());
}

TEST(LocprivLint, HarnessDirectoryMayForkAndReap) {
  // Likewise for process lifecycle: the supervisor implementation is the
  // one legitimate home for fork/waitpid/kill. (The fixture's waitpid sits
  // in an EINTR retry loop, so only the raw-process rule is at stake.)
  const std::string content = read_fixture("raw_process_bad.cc");
  EXPECT_EQ(lint_source("src/sample.cpp", content).size(), 1u);
  EXPECT_TRUE(lint_source("src/core/harness/supervisor.cpp", content).empty());
}

TEST(LocprivLint, ServiceDirectoryMayForkAndReap) {
  // locprivd shards users across fork(2)-managed workers, so src/service/
  // shares the raw-process waiver — but only that one: the raw-write rule
  // still applies there (snapshots must go through AtomicFileWriter).
  const std::string content = read_fixture("raw_process_service.cc");
  const auto library = lint_source("src/sample.cpp", content);
  EXPECT_EQ(library.size(), 3u);
  for (const Finding& finding : library) EXPECT_EQ(finding.rule, "raw-process");
  EXPECT_TRUE(lint_source("src/service/locprivd.cpp", content).empty());
  const auto raw_write = lint_source("src/service/snapshot.cpp",
                                     read_fixture("raw_write_bad.cc"));
  ASSERT_EQ(raw_write.size(), 1u);
  EXPECT_EQ(raw_write[0].rule, "raw-write");
}

TEST(LocprivLint, GlobalQualifiedSyscallStillFlagged) {
  // `::fork()` is the real syscall even though it is qualified; only a
  // class-qualified name (`Rng::fork`) passes as a C++ method.
  const auto global_call = lint_source("src/sample.cpp", "int f() { return ::fork(); }\n");
  ASSERT_EQ(global_call.size(), 1u);
  EXPECT_EQ(global_call[0].rule, "raw-process");
  EXPECT_TRUE(
      lint_source("src/sample.cpp", "Rng r = Rng::fork();\n").empty());
}

TEST(LocprivLint, EintrRetryRecognisesHeaderConditionLoops) {
  // The canonical fix shape keeps the call in the while *header*; the rule
  // must see the loop's full extent, not just its brace body. (The harness
  // label keeps the raw-process rule out of the way for waitpid.)
  EXPECT_TRUE(lint_source("src/core/harness/sample.cpp",
                          "#include <cerrno>\n"
                          "void reap(int pid) {\n"
                          "  int status = 0;\n"
                          "  while (::waitpid(pid, &status, 0) < 0 && errno == "
                          "EINTR) {}\n"
                          "}\n")
                  .empty());
  // WNOHANG polls never block, so they are exempt.
  EXPECT_TRUE(lint_source("src/core/harness/sample.cpp",
                          "void poll_child(int pid) {\n"
                          "  int status = 0;\n"
                          "  ::waitpid(pid, &status, WNOHANG);\n"
                          "}\n")
                  .empty());
  // A loop that does NOT mention EINTR is not a retry loop.
  const auto findings = lint_source(
      "src/core/harness/sample.cpp",
      "void reap_all(int* pids, int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    int status = 0;\n"
      "    ::waitpid(pids[i], &status, 0);\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "eintr-retry");
  EXPECT_EQ(findings[0].line, 4u);
}

TEST(LocprivLint, FdGuardTracksOwnershipTransfers) {
  // Returning the fd hands ownership to the caller.
  EXPECT_TRUE(lint_source("src/sample.cpp",
                          "int acquire(const char* p) {\n"
                          "  const int fd = ::open(p, 0);\n"
                          "  return fd;\n"
                          "}\n")
                  .empty());
  // Passing it to a non-borrower (an owning helper / guard) also counts.
  EXPECT_TRUE(lint_source("src/sample.cpp",
                          "void adopt(const char* p) {\n"
                          "  const int fd = ::open(p, 0);\n"
                          "  FdGuard guard(fd);\n"
                          "  use(guard);\n"
                          "}\n")
                  .empty());
  // Member stores (trailing underscore) are owned by the object.
  EXPECT_TRUE(lint_source("src/sample.cpp",
                          "void Ledger::open_file(const char* p) {\n"
                          "  fd_ = ::open(p, 0);\n"
                          "}\n")
                  .empty());
}

TEST(LocprivLint, SeqNarrowingPatrolsOnlyServiceDir) {
  const std::string bad = read_fixture("seq_narrowing_bad.cc");
  const auto service = lint_source("src/service/shard_child.cpp", bad);
  ASSERT_EQ(service.size(), 1u);
  EXPECT_EQ(service[0].rule, "seq-narrowing");
  EXPECT_TRUE(lint_source("src/sample.cpp", bad).empty());
  EXPECT_TRUE(lint_source("src/service/shard_child.cpp",
                          read_fixture("seq_narrowing_clean.cc"))
                  .empty());
  // A narrow declaration (not just a cast) is also flagged.
  const auto decl = lint_source(
      "src/service/wire.hpp",
      "#include <cstdint>\nstruct S { std::uint32_t submit_seq = 0; };\n");
  ASSERT_EQ(decl.size(), 1u);
  EXPECT_EQ(decl[0].rule, "seq-narrowing");
}

TEST(LocprivLint, UnboundedGrowthPatrolsOnlyLongLivedStateDirs) {
  // The rule is path-gated: member-container growth with no trim in sight
  // is flagged under the daemon and supervisor trees, ignored elsewhere
  // (transient CLI/bench buffers are not production leaks).
  const std::string bad = read_fixture("unbounded_growth_bad.cc");
  const auto service = lint_source("src/service/locprivd.cpp", bad);
  ASSERT_EQ(service.size(), 1u);
  EXPECT_EQ(service[0].rule, "unbounded-growth");
  const auto harness = lint_source("src/core/harness/sweep.cpp", bad);
  ASSERT_EQ(harness.size(), 1u);
  EXPECT_EQ(harness[0].rule, "unbounded-growth");
  EXPECT_TRUE(lint_source("src/sample.cpp", bad).empty());
  // Trimmed, local, and justified-suppressed growth all pass in place.
  EXPECT_TRUE(lint_source("src/service/locprivd.cpp",
                          read_fixture("unbounded_growth_clean.cc"))
                  .empty());
}

TEST(LocprivLint, LinearSpatialScanPatrolsOnlySpatialDirs) {
  // Distance calls inside loops are flagged only under src/poi/ and
  // src/privacy/ — the hot paths the GeoTree index serves; geo/ itself (the
  // index refine loops live there) and neutral library code are exempt.
  const std::string bad = read_fixture("linear_spatial_scan_bad.cc");
  const auto poi = lint_source("src/poi/clustering.cpp", bad);
  ASSERT_EQ(poi.size(), 1u);
  EXPECT_EQ(poi[0].rule, "linear-spatial-scan");
  const auto privacy = lint_source("src/privacy/metrics.cpp", bad);
  ASSERT_EQ(privacy.size(), 1u);
  EXPECT_EQ(privacy[0].rule, "linear-spatial-scan");
  EXPECT_TRUE(lint_source("src/sample.cpp", bad).empty());
  EXPECT_TRUE(lint_source("src/geo/geotree.cpp", bad).empty());
  EXPECT_TRUE(lint_source("src/poi/sample.cpp",
                          read_fixture("linear_spatial_scan_clean.cc"))
                  .empty());
}

TEST(LocprivLint, UncheckedIoPatrolsOnlyStorageOwningDirs) {
  // Discarded durability results are flagged only under the directories
  // that own storage (harness + service); neutral library code discards
  // freely (it does not publish artifacts directly).
  const std::string bad = read_fixture("unchecked_io_bad.cc");
  const auto harness = lint_source("src/core/harness/atomic_file.cpp", bad);
  ASSERT_EQ(harness.size(), 1u);
  EXPECT_EQ(harness[0].rule, "unchecked-io");
  const auto service = lint_source("src/service/snapshot.cpp", bad);
  ASSERT_EQ(service.size(), 1u);
  EXPECT_EQ(service[0].rule, "unchecked-io");
  EXPECT_TRUE(lint_source("src/sample.cpp", bad).empty());
  EXPECT_TRUE(lint_source("src/core/harness/sample.cpp",
                          read_fixture("unchecked_io_clean.cc"))
                  .empty());
  EXPECT_TRUE(lint_source("src/core/harness/sample.cpp",
                          read_fixture("unchecked_io_suppressed.cc"))
                  .empty());
  // The injectable FileOps layer is covered through its member spelling;
  // other receivers (std::ostream::write) conventionally discard.
  const char* member =
      "struct FileOps { int fsync(int); };\n"
      "void f(FileOps& ops, int fd) { ops.fsync(fd); }\n";
  const auto flagged = lint_source("src/core/harness/sample.cpp", member);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0].rule, "unchecked-io");
  const char* stream =
      "struct Sink { int fsync(int); };\n"
      "void f(Sink& out, int fd) { out.fsync(fd); }\n";
  EXPECT_TRUE(lint_source("src/core/harness/sample.cpp", stream).empty());
}

TEST(LocprivLint, UnorderedContainerWithoutSerializationSinkIsClean) {
  EXPECT_TRUE(lint_fixture("unordered_no_sink_clean.cc").empty());
}

TEST(LocprivLint, SuppressionWorksOnPrecedingAndSameLine) {
  EXPECT_TRUE(lint_fixture("suppressed.cc").empty());
}

TEST(LocprivLint, UnknownRuleInSuppressionIsItselfAnError) {
  // The typo'd allow() is reported AND fails to suppress, so both findings
  // surface: nothing about a misspelling quietly disables checking.
  const auto findings = lint_fixture("bad_suppression.cc");
  EXPECT_EQ(rule_names(findings),
            (std::vector<std::string>{"bad-suppression", "raw-write"}));
  EXPECT_NE(findings[0].message.find("raw-writes"), std::string::npos);
}

TEST(LocprivLint, CommentsAndStringLiteralsNeverTrigger) {
  const std::string content =
      "// std::ofstream in prose; srand(1); exit(2)\n"
      "/* std::unordered_map<int,int> feeding CsvWriter */\n"
      "const char* kDoc = \"std::rand and time(nullptr) and catch (...)\";\n"
      "const char* kRaw = R\"(std::random_device)\";\n";
  EXPECT_TRUE(lint_source("src/sample.cpp", content).empty());
}

TEST(LocprivLint, CodeAfterABlockCommentIsStillLinted) {
  // Regression: the lexer once never left a block comment, so everything
  // after the first `/* ... */` was blanked as comment text and a distance
  // call in a loop below an inline `f(/*flag=*/true)` went unreported.
  const std::string content =
      "void scan(const std::vector<P>& points) {\n"
      "  close_stay(/*consume_overlap=*/true);\n"
      "  for (const auto& p : points) {\n"
      "    if (geo::equirectangular_m(p.a, p.b) > 5.0) return;\n"
      "  }\n"
      "}\n";
  const auto findings = lint_source("src/poi/staypoint.cpp", content);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "linear-spatial-scan");
  EXPECT_EQ(findings[0].line, 4u);
}

TEST(LocprivLintLexer, BlockCommentEndsAtItsTerminator) {
  const auto src = locpriv::lint::lex("int a; /* note */ int b;\n/* x\n*/ int c;\n");
  std::vector<std::string> identifiers;
  for (const auto& t : src.tokens)
    if (t.kind == locpriv::lint::TokenKind::kIdentifier) identifiers.push_back(t.text);
  EXPECT_EQ(identifiers, (std::vector<std::string>{"int", "a", "int", "b", "int", "c"}));
  EXPECT_EQ(src.code.find("note"), std::string::npos);
  EXPECT_NE(src.comments.find("note"), std::string::npos);
}

TEST(LocprivLint, StringifiedMacrosNeverReachFlowRules) {
  // A whole preprocessor directive is one token: syscalls spelled inside a
  // macro body are not call sites, with or without line continuations.
  EXPECT_TRUE(lint_source("src/sample.cpp",
                          "#define RETRY_READ(fd, buf, n) \\\n"
                          "  ::read(fd, buf, n)\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/sample.cpp",
                          "#define OPEN_RAW(p) ::open(p, 0)\n")
                  .empty());
}

TEST(LocprivLintLexer, TokensCarryLineNumbersAcrossRawStrings) {
  const auto src = locpriv::lint::lex(
      "int a;\n"
      "const char* s = R\"(line\nline\nline)\";\n"
      "int b;\n");
  // Find the identifiers and the raw string.
  std::size_t a_line = 0, b_line = 0, raw_line = 0;
  std::string raw_text;
  for (const auto& t : src.tokens) {
    if (t.kind == locpriv::lint::TokenKind::kIdentifier && t.text == "a")
      a_line = t.line;
    if (t.kind == locpriv::lint::TokenKind::kIdentifier && t.text == "b")
      b_line = t.line;
    if (t.kind == locpriv::lint::TokenKind::kRawString) {
      raw_line = t.line;
      raw_text = t.text;
    }
  }
  EXPECT_EQ(a_line, 1u);
  EXPECT_EQ(raw_line, 2u);
  EXPECT_EQ(raw_text, "line\nline\nline");
  EXPECT_EQ(b_line, 5u);  // the raw string body spans lines 2-4
}

TEST(LocprivLintLexer, ContinuedPreprocDirectiveIsOneToken) {
  const auto src = locpriv::lint::lex(
      "#define MANY(a, b) \\\n"
      "  do_thing(a); \\\n"
      "  do_thing(b)\n"
      "int after;\n");
  std::size_t preproc_count = 0;
  std::size_t after_line = 0;
  for (const auto& t : src.tokens) {
    if (t.kind == locpriv::lint::TokenKind::kPreproc) {
      ++preproc_count;
      EXPECT_NE(t.text.find("do_thing"), std::string::npos);
    }
    if (t.kind == locpriv::lint::TokenKind::kIdentifier && t.text == "after")
      after_line = t.line;
  }
  EXPECT_EQ(preproc_count, 1u);
  EXPECT_EQ(after_line, 4u);
}

TEST(LocprivLintLexer, BlankedViewsPreserveLineStructure) {
  const std::string content = "int a; // note\nconst char* s = \"xy\";\n";
  const auto src = locpriv::lint::lex(content);
  EXPECT_EQ(std::count(src.code.begin(), src.code.end(), '\n'),
            std::count(content.begin(), content.end(), '\n'));
  EXPECT_EQ(src.code.find("note"), std::string::npos);
  EXPECT_EQ(src.code.find("xy"), std::string::npos);
  EXPECT_NE(src.comments.find("note"), std::string::npos);
}

TEST(LocprivLint, VerbExhaustiveMiniTrees) {
  const std::string base = std::string(LOCPRIV_LINT_FIXTURE_DIR);
  // Clean: every verb decoded, every ledger kind parsed, exit codes match.
  std::size_t files = 0;
  const auto clean = locpriv::lint::lint_tree(base + "/verb_tree_clean", &files);
  EXPECT_EQ(files, 5u);
  EXPECT_TRUE(clean.empty());
  // Bad: an undecoded command verb, an unparsed ledger kind, and an exit
  // code missing from the README table — deleting a handler is caught.
  const auto bad = locpriv::lint::lint_tree(base + "/verb_tree_bad");
  ASSERT_EQ(bad.size(), 3u);
  for (const Finding& finding : bad) EXPECT_EQ(finding.rule, "verb-exhaustive");
  bool verb = false, ledger = false, code = false;
  for (const Finding& finding : bad) {
    verb = verb || finding.message.find("kCmdSnapshot") != std::string::npos;
    ledger = ledger || finding.message.find("\"shed\"") != std::string::npos;
    code = code || finding.message.find("kIo") != std::string::npos;
  }
  EXPECT_TRUE(verb);
  EXPECT_TRUE(ledger);
  EXPECT_TRUE(code);
  // Suppressed: the justified allow at the declaration keeps the scan green.
  EXPECT_TRUE(locpriv::lint::lint_tree(base + "/verb_tree_suppressed").empty());
}

TEST(LocprivLint, FindingsAreStablyOrderedAndFormatted) {
  const std::string content =
      "#include <cstdlib>\n"
      "void f() { std::exit(1); }\n"
      "unsigned g() { return std::rand(); }\n";
  const auto findings = lint_source("src/sample.cpp", content);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "exit-call");
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_EQ(findings[1].rule, "nondet-rng");
  EXPECT_EQ(findings[1].line, 3u);
  EXPECT_EQ(locpriv::lint::format_text(findings[0]).find("src/sample.cpp:2: [exit-call]"),
            0u);
  EXPECT_EQ(locpriv::lint::format_github(findings[0])
                .find("::error file=src/sample.cpp,line=2,title=locpriv-lint(exit-call)::"),
            0u);
}

TEST(LocprivLint, JsonFormatsAreWellFormed) {
  const auto findings = lint_source(
      "src/sample.cpp", "#include <cstdlib>\nvoid f() { std::exit(1); }\n");
  ASSERT_EQ(findings.size(), 1u);
  const std::string json = locpriv::lint::format_json(findings, 1);
  EXPECT_EQ(json.find("{\"files_scanned\":1,\"findings\":["), 0u);
  EXPECT_NE(json.find("\"file\":\"src/sample.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":2"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"exit-call\""), std::string::npos);
  const std::string empty = locpriv::lint::format_json({}, 7);
  EXPECT_EQ(empty, "{\"files_scanned\":7,\"findings\":[]}");
  const std::string rules = locpriv::lint::rules_json();
  for (const auto& rule : locpriv::lint::rules())
    EXPECT_NE(rules.find("\"name\":\"" + std::string(rule.name) + "\""),
              std::string::npos);
}

TEST(LocprivLint, KnownRuleRegistryIsSortedAndComplete) {
  const auto& rules = locpriv::lint::rules();
  ASSERT_EQ(rules.size(), 15u);
  for (std::size_t i = 1; i < rules.size(); ++i)
    EXPECT_LT(rules[i - 1].name, rules[i].name);
  for (const auto& rule : rules)
    EXPECT_TRUE(locpriv::lint::is_known_rule(rule.name));
  EXPECT_FALSE(locpriv::lint::is_known_rule("bad-suppression"));
  EXPECT_FALSE(locpriv::lint::is_known_rule("raw-writes"));
}

TEST(LocprivLint, EveryRegisteredRuleHasAFiringFixture) {
  // The registry and the fixture corpus must not drift apart: a rule whose
  // `<rule>_bad` fixture is missing or silent fails this test, so adding a
  // rule forces adding its fixture.
  for (const auto& rule : locpriv::lint::rules()) {
    std::string stem(rule.name);
    std::replace(stem.begin(), stem.end(), '-', '_');
    if (rule.name == "verb-exhaustive") {
      const auto findings = locpriv::lint::lint_tree(
          std::string(LOCPRIV_LINT_FIXTURE_DIR) + "/verb_tree_bad");
      bool fired = false;
      for (const Finding& finding : findings)
        fired = fired || finding.rule == rule.name;
      EXPECT_TRUE(fired) << rule.name;
      continue;
    }
    // Path-gated rules need their patrolled directory in the label.
    const char* label = "src/sample.cpp";
    if (rule.name == "seq-narrowing" || rule.name == "unbounded-growth")
      label = "src/service/sample.cpp";
    if (rule.name == "linear-spatial-scan") label = "src/poi/sample.cpp";
    if (rule.name == "unchecked-io") label = "src/core/harness/sample.cpp";
    const auto findings =
        lint_source(label, read_fixture(stem + "_bad.cc"));
    bool fired = false;
    for (const Finding& finding : findings)
      fired = fired || finding.rule == rule.name;
    EXPECT_TRUE(fired) << rule.name << " (" << stem << "_bad.cc)";
  }
}

TEST(LocprivLint, LiveTreeIsClean) {
  std::size_t files_scanned = 0;
  const auto findings = locpriv::lint::lint_tree(LOCPRIV_SOURCE_DIR, &files_scanned);
  // The repo has well over a hundred sources; a tiny count means the walk
  // silently missed the tree, which would make this test vacuous.
  EXPECT_GT(files_scanned, 100u);
  std::string rendered;
  for (const Finding& finding : findings)
    rendered += locpriv::lint::format_text(finding) + "\n";
  EXPECT_TRUE(findings.empty()) << rendered;
}

}  // namespace
