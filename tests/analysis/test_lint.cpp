// Self-tests of the wfens_lint rule engine (tools/wfens_lint) on fixture
// sources: every rule fires on a seeded violation, stays quiet on clean
// and annotated code, and the comment/string masker never lets prose
// trigger identifier rules.
#include "wfens_lint/lint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace lint = wfe::lint;

namespace {

// -- banned identifiers ------------------------------------------------------

TEST(LintBannedIdent, RandCallCaught) {
  const auto fs = lint::lint_source("src/core/x.cpp", "int f(){return rand();}");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "banned-ident");
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_EQ(fs[0].file, "src/core/x.cpp");
}

TEST(LintBannedIdent, SrandCaught) {
  const auto fs = lint::lint_source("src/core/x.cpp", "void f(){srand(7);}");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "banned-ident");
}

TEST(LintBannedIdent, RandomDeviceCaughtEvenUnqualified) {
  const auto fs = lint::lint_source(
      "src/sched/x.cpp", "#include <random>\nstd::random_device rd;\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 2);
}

TEST(LintBannedIdent, TimeCallCaught) {
  const auto fs =
      lint::lint_source("tools/x.cpp", "long t = time(nullptr);\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "banned-ident");
}

TEST(LintBannedIdent, IdentifiersContainingTimeNotCaught) {
  const auto fs = lint::lint_source(
      "src/dtl/x.cpp",
      "double wait_time(int x);\n"       // declaration of OUR identifier
      "double timeout(int);\n"
      "int y = obj.time();\n"            // member call
      "int z = ptr->time();\n");
  // `wait_time(`/`timeout(` are different identifiers; `.time(`/`->time(`
  // are member calls. Only a free time() call is the wall clock.
  EXPECT_TRUE(fs.empty()) << fs[0].message;
}

TEST(LintBannedIdent, SystemClockBannedOutsideSupport) {
  const std::string src = "auto t = std::chrono::system_clock::now();\n";
  EXPECT_EQ(lint::lint_source("src/runtime/x.cpp", src).size(), 1u);
  EXPECT_TRUE(lint::lint_source("src/support/x.cpp", src).empty());
}

TEST(LintBannedIdent, SteadyClockIsFine) {
  const auto fs = lint::lint_source(
      "src/obs/x.cpp", "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_TRUE(fs.empty());
}

// -- std::function in the event core -----------------------------------------

TEST(LintSimengine, StdFunctionBannedInSimengine) {
  const std::string src =
      "#include <functional>\n#pragma once\nstd::function<void()> cb;\n";
  const auto fs = lint::lint_source("src/simengine/x.hpp", src);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "simengine-std-function");
  EXPECT_EQ(fs[0].line, 3);
}

TEST(LintSimengine, StdFunctionFineElsewhere) {
  const auto fs = lint::lint_source(
      "src/exec/x.cpp", "#include <functional>\nstd::function<void()> cb;\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LintSimengine, UnqualifiedFunctionIdentifierFine) {
  const auto fs = lint::lint_source(
      "src/simengine/x.cpp", "int function = 3;\nint y = function + 1;\n");
  EXPECT_TRUE(fs.empty());
}

// -- event queues outside the engine -----------------------------------------

TEST(LintEventQueue, PriorityQueueBannedOutsideSimengine) {
  const std::string src =
      "#include <queue>\n"
      "std::priority_queue<int> q;\n";
  const auto fs = lint::lint_source("src/sched/x.cpp", src);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "event-queue-outside-simengine");
  EXPECT_EQ(fs[0].line, 2);  // the include line is exempt
}

TEST(LintEventQueue, RawHeapAlgorithmsBannedOutsideSimengine) {
  const std::string src =
      "void f(std::vector<int>& v) {\n"
      "  std::push_heap(v.begin(), v.end());\n"
      "  std::pop_heap(v.begin(), v.end());\n"
      "  std::make_heap(v.begin(), v.end());\n"
      "  std::sort_heap(v.begin(), v.end());\n"
      "}\n";
  const auto fs = lint::lint_source("tools/x.cpp", src);
  ASSERT_EQ(fs.size(), 4u);
  for (const auto& f : fs) {
    EXPECT_EQ(f.rule, "event-queue-outside-simengine");
  }
}

TEST(LintEventQueue, FineInsideSimengine) {
  const auto fs = lint::lint_source(
      "src/simengine/engine.cpp",
      "void f(std::vector<int>& v) { std::push_heap(v.begin(), v.end()); }\n"
      "std::priority_queue<int> q;\n");
  EXPECT_TRUE(fs.empty());
}

// -- unordered containers in exporters ---------------------------------------

TEST(LintUnordered, UseInExporterCaught) {
  const std::string src =
      "#include <unordered_map>\n"
      "void g() { std::unordered_map<int, int> m; for (auto& kv : m) {} }\n";
  const auto fs = lint::lint_source("src/obs/x.cpp", src);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "unordered-iter");
  EXPECT_EQ(fs[0].line, 2);  // the include line is exempt
}

TEST(LintUnordered, TraceIoIsAnExporterTu) {
  const auto fs = lint::lint_source("src/metrics/trace_io.cpp",
                                    "std::unordered_set<int> s;\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "unordered-iter");
}

TEST(LintUnordered, FineOutsideExporters) {
  const auto fs = lint::lint_source("src/sched/x.cpp",
                                    "std::unordered_map<int, int> memo;\n");
  EXPECT_TRUE(fs.empty());
}

// -- StageRecord outside the recording layers --------------------------------

TEST(LintStageRecord, ConstructionOutsideRuntimeCaught) {
  const std::string brace = "auto r = met::StageRecord{c, 0, k, 1.0, 2.0};\n";
  const std::string decl = "met::StageRecord r;\n";
  for (const std::string& src : {brace, decl}) {
    const auto fs = lint::lint_source("src/sched/x.cpp", src);
    ASSERT_EQ(fs.size(), 1u) << src;
    EXPECT_EQ(fs[0].rule, "stage-record-outside-runtime");
  }
}

TEST(LintStageRecord, RuntimeAndMetricsMayConstruct) {
  const std::string src = "met::StageRecord r{};\n";
  EXPECT_TRUE(lint::lint_source("src/runtime/x.cpp", src).empty());
  EXPECT_TRUE(lint::lint_source("src/metrics/trace.cpp", src).empty());
  // tools/ and tests are out of scope entirely.
  EXPECT_TRUE(lint::lint_source("tools/wfens_x.cpp", src).empty());
}

TEST(LintStageRecord, ReadOnlyUsesAreFine) {
  // References, template arguments, and range-for reads never construct.
  const auto fs = lint::lint_source(
      "src/sched/x.cpp",
      "void f(const met::StageRecord& r);\n"
      "std::vector<met::StageRecord> v = trace.for_component(id);\n"
      "for (const met::StageRecord& r : v) { use(r); }\n"
      "#include \"metrics/StageRecord.hpp\"\n");
  EXPECT_TRUE(fs.empty()) << fs[0].message;
}

TEST(LintStageRecord, AllowAnnotationSuppresses) {
  const auto fs = lint::lint_source(
      "src/sched/x.cpp",
      "met::StageRecord r;  "
      "// wfens-lint: allow(stage-record-outside-runtime)\n");
  EXPECT_TRUE(fs.empty());
}

// -- best-arm search state outside the scheduler ------------------------------

TEST(LintArmState, ArmStatsUseOutsideSchedCaught) {
  const std::string src =
      "#include \"sched/arm_stats.hpp\"\n"
      "void f() { wfe::sched::ArmStats s; s.add(0.5); }\n";
  const auto fs = lint::lint_source("src/runtime/x.cpp", src);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "arm-state-outside-sched");
  EXPECT_EQ(fs[0].line, 2);  // the include line is exempt
}

TEST(LintArmState, ExplorationLogCaughtInToolsToo) {
  const auto fs = lint::lint_source(
      "tools/wfens_x.cpp",
      "const double l = wfe::sched::exploration_log(10, 4);\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "arm-state-outside-sched");
}

TEST(LintArmState, FineInsideSched) {
  EXPECT_TRUE(lint::lint_source("src/sched/bai.cpp",
                                "ArmStats stats;\n"
                                "const double l = exploration_log(1, 2);\n")
                  .empty());
}

TEST(LintArmState, SchedulerApiIsFineEverywhere) {
  const auto fs = lint::lint_source(
      "src/runtime/x.cpp",
      "auto s = wfe::sched::make_scheduler(\"bai-search\");\n"
      "(void)s->plan(shape, platform, {3});\n");
  EXPECT_TRUE(fs.empty()) << fs[0].message;
}

TEST(LintArmState, AllowAnnotationSuppresses) {
  const auto fs = lint::lint_source(
      "tools/wfens_x.cpp",
      "sched::ArmStats s;  // wfens-lint: allow(arm-state-outside-sched)\n");
  EXPECT_TRUE(fs.empty());
}

// -- raw concurrency primitives ----------------------------------------------

TEST(LintRawMutex, StdMutexBannedInSrc) {
  const auto fs = lint::lint_source(
      "src/sched/x.cpp", "#include <mutex>\nstd::mutex m;\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "raw-mutex");
  EXPECT_EQ(fs[0].line, 2);
}

TEST(LintRawMutex, ConditionVariableAndVariantsBanned) {
  const auto fs = lint::lint_source(
      "src/runtime/x.cpp",
      "std::condition_variable cv;\nstd::shared_mutex sm;\n"
      "std::recursive_timed_mutex rtm;\n");
  ASSERT_EQ(fs.size(), 3u);
  for (const auto& f : fs) EXPECT_EQ(f.rule, "raw-mutex");
}

TEST(LintRawMutex, SupportAndToolsAndRankedTypesFine) {
  // support/ implements the ranked wrappers, tools/ is out of scope, and
  // unqualified identifiers (RankedMutex's own members, locals named
  // `mutex`) never fire.
  EXPECT_TRUE(lint::lint_source("src/support/lock_rank.hpp",
                                "#pragma once\nstd::mutex raw_;\n")
                  .empty());
  EXPECT_TRUE(
      lint::lint_source("tools/wfens_x.cpp", "std::mutex m;\n").empty());
  EXPECT_TRUE(lint::lint_source("src/sched/x.cpp",
                                "support::RankedMutex<3> mutex;\n")
                  .empty());
}

TEST(LintRawMutex, AllowAnnotationSuppresses) {
  const auto fs = lint::lint_source(
      "src/sched/x.cpp",
      "std::mutex m;  // wfens-lint: allow(raw-mutex)\n");
  EXPECT_TRUE(fs.empty());
}

// -- allow() escape hatch ----------------------------------------------------

TEST(LintAllow, SameLineAnnotationSuppresses) {
  const auto fs = lint::lint_source(
      "src/core/x.cpp",
      "int f(){return rand();}  // wfens-lint: allow(banned-ident)\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LintAllow, StandaloneAnnotationCoversNextLine) {
  const auto fs = lint::lint_source(
      "src/obs/x.cpp",
      "// wfens-lint: allow(unordered-iter)\n"
      "std::unordered_map<int, int> lookup_only;\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LintAllow, WrongRuleStillFires) {
  const auto fs = lint::lint_source(
      "src/core/x.cpp",
      "int f(){return rand();}  // wfens-lint: allow(unordered-iter)\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "banned-ident");
}

TEST(LintAllow, AnnotationDoesNotLeakPastNextLine) {
  const auto fs = lint::lint_source(
      "src/core/x.cpp",
      "// wfens-lint: allow(banned-ident)\n"
      "int a = 0;\n"
      "int f(){return rand();}\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 3);
}

TEST(LintAllow, CommaSeparatedRules) {
  const auto fs = lint::lint_source(
      "src/obs/x.cpp",
      "// wfens-lint: allow(banned-ident, unordered-iter)\n"
      "std::unordered_map<int, long> m; long t = time(nullptr);\n");
  EXPECT_TRUE(fs.empty());
}

// -- masking: comments, strings, raw strings ---------------------------------

TEST(LintMask, CommentsAndStringsNeverFire) {
  const auto fs = lint::lint_source(
      "src/core/x.cpp",
      "// this comment mentions rand() and time() and system_clock\n"
      "/* block: std::random_device */\n"
      "const char* s = \"rand() time() unordered_map\";\n"
      "const char* r = R\"(srand(1) system_clock)\";\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LintMask, CodeAfterCommentOnSameLineStillScanned) {
  const auto fs = lint::lint_source(
      "src/core/x.cpp", "/* note */ int f(){return rand();}\n");
  ASSERT_EQ(fs.size(), 1u);
}

TEST(LintMask, DigitSeparatorsAreNotCharLiterals) {
  // A buggy masker treats 1'000'000 as opening a char literal and blanks
  // the rest of the file — hiding the rand() on the next line.
  const auto fs = lint::lint_source(
      "src/core/x.cpp", "int big = 1'000'000;\nint f(){return rand();}\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 2);
}

// -- include hygiene ---------------------------------------------------------

TEST(LintIncludes, PragmaOnceRequiredInHeaders) {
  EXPECT_EQ(lint::lint_source("src/core/x.hpp", "int x;\n").size(), 1u);
  EXPECT_TRUE(
      lint::lint_source("src/core/x.hpp", "#pragma once\nint x;\n").empty());
  // Not a header: no pragma needed.
  EXPECT_TRUE(lint::lint_source("src/core/x.cpp", "int x;\n").empty());
}

TEST(LintIncludes, ParentRelativeIncludeCaught) {
  const auto fs = lint::lint_source(
      "src/core/x.cpp", "#include \"../obs/recorder.hpp\"\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "include-parent");
}

TEST(LintIncludes, IostreamInHeaderCaught) {
  const auto fs = lint::lint_source(
      "src/core/x.hpp", "#pragma once\n#include <iostream>\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "iostream-in-header");
  // Fine in a TU.
  EXPECT_TRUE(
      lint::lint_source("src/core/x.cpp", "#include <iostream>\n").empty());
}

// -- classification / report / tree walker -----------------------------------

TEST(LintClassify, PathsScopeTheRules) {
  EXPECT_TRUE(lint::classify_path("src/support/rng.hpp").in_support);
  EXPECT_TRUE(lint::classify_path("src/simengine/engine.cpp").in_simengine);
  EXPECT_TRUE(lint::classify_path("src/obs/export.cpp").exporter);
  EXPECT_TRUE(lint::classify_path("src/metrics/trace_io.cpp").exporter);
  EXPECT_FALSE(lint::classify_path("src/metrics/trace.cpp").exporter);
  EXPECT_TRUE(lint::classify_path("src/core/x.hpp").header);
  EXPECT_FALSE(lint::classify_path("src/core/x.cpp").header);
}

TEST(LintReport, JsonShape) {
  std::vector<lint::Finding> fs{
      {"src/a.cpp", 3, "banned-ident", "rand() is \"bad\""}};
  const std::string json = lint::findings_to_json(fs);
  EXPECT_NE(json.find("\"file\":\"src/a.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":3"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"banned-ident\""), std::string::npos);
  EXPECT_NE(json.find("\\\"bad\\\""), std::string::npos);
  EXPECT_EQ(lint::findings_to_json({}), "[]\n");
}

TEST(LintTree, WalksSrcAndToolsSortedAndScoped) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(::testing::TempDir()) / "wfens_lint_tree_fixture";
  fs::remove_all(root);
  fs::create_directories(root / "src/core");
  fs::create_directories(root / "tools");
  fs::create_directories(root / "bench");
  const auto write = [](const fs::path& p, const std::string& text) {
    std::ofstream out(p);
    out << text;
  };
  write(root / "src/core/bad.cpp", "int f(){return rand();}\n");
  write(root / "src/core/good.cpp", "int g(){return 4;}\n");
  write(root / "tools/also_bad.cpp", "long t = time(nullptr);\n");
  write(root / "bench/ignored.cpp", "int h(){return rand();}\n");  // not scanned
  // A manifest declaring both modules, so the whole-project layering pass
  // has nothing to add to the two banned-ident findings.
  fs::create_directories(root / "tools/wfens_lint");
  write(root / "tools/wfens_lint/layers.conf",
        "module core\nmodule tools\n");

  const auto findings = lint::lint_tree(root);
  ASSERT_EQ(findings.size(), 2u);
  // Sorted path order: src/... before tools/...
  EXPECT_EQ(findings[0].file, "src/core/bad.cpp");
  EXPECT_EQ(findings[1].file, "tools/also_bad.cpp");
  fs::remove_all(root);
}

TEST(LintTree, TheRealTreeIsClean) {
  // The same invariant the lint.tree ctest enforces, reachable from the
  // test binary so a violation names the culprit in this suite too.
  const std::filesystem::path root = WFENS_REPO_ROOT;
  const auto findings = lint::lint_tree(root);
  for (const auto& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message;
  }
}

}  // namespace
