/**
 * @file
 * h2lint's own test suite, driven by the fixture files under
 * tests/lint_fixtures/: every rule has at least one must-flag and one
 * must-pass fixture plus a suppression fixture, the two mini-repo
 * trees pin the tree walk in both directions, and the
 * exit-code contract of the installed binary (0 clean / 1 findings /
 * 2 usage error) is pinned by spawning it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

#ifndef H2_LINT_FIXTURE_DIR
#error "H2_LINT_FIXTURE_DIR must point at tests/lint_fixtures"
#endif
#ifndef H2_LINT_BIN
#error "H2_LINT_BIN must point at the h2lint executable"
#endif

namespace h2::lint {
namespace {

std::string
fixturePath(const std::string &name)
{
    return std::string(H2_LINT_FIXTURE_DIR) + "/" + name;
}

std::string
readFixture(const std::string &name)
{
    std::ifstream in(fixturePath(name), std::ios::binary);
    EXPECT_TRUE(in) << "missing fixture " << name;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Lint one fixture under a logical repo path (rule applicability is
 *  path-derived). */
std::vector<Finding>
lintFixture(const std::string &name, const std::string &asPath)
{
    return lintFileContents(asPath, readFixture(name), Options{});
}

std::vector<int>
linesOf(const std::vector<Finding> &fs, const std::string &rule)
{
    std::vector<int> lines;
    for (const Finding &f : fs)
        if (f.rule == rule)
            lines.push_back(f.line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

// ------------------------------------------------------------ lexer

TEST(LintScrub, StripsCommentsAndStrings)
{
    auto sf = detail::scrub("int a; // rand()\n"
                            "const char *s = \"rand()\";\n"
                            "/* std::stoul */ int b;\n");
    EXPECT_EQ(sf.code.find("rand"), std::string::npos);
    EXPECT_EQ(sf.code.find("stoul"), std::string::npos);
    // Line structure is preserved.
    EXPECT_EQ(std::count(sf.code.begin(), sf.code.end(), '\n'), 3);
}

TEST(LintScrub, DigitSeparatorIsNotACharLiteral)
{
    auto sf = detail::scrub("u64 n = 30'000;\nint rand();\n");
    // A naive lexer eats everything after 30' as a char literal and
    // hides the next line from the rules.
    EXPECT_NE(sf.code.find("rand"), std::string::npos);
}

TEST(LintScrub, RawStringsAreStripped)
{
    auto sf = detail::scrub("auto re = R\"(rand\\()\" ;\nint x;\n");
    EXPECT_EQ(sf.code.find("rand"), std::string::npos);
    EXPECT_NE(sf.code.find("int x"), std::string::npos);
}

TEST(LintScrub, SuppressionsParse)
{
    auto sf = detail::scrub("int a; // h2lint: allow(R9, R2)\n"
                            "int b;\n"
                            "int c;\n"
                            "// h2lint: allow-file(R5)\n");
    EXPECT_TRUE(sf.suppressed("R9", 1));
    EXPECT_TRUE(sf.suppressed("R2", 2)); // next line is covered
    EXPECT_FALSE(sf.suppressed("R9", 3));
    EXPECT_TRUE(sf.suppressed("R5", 999)); // file-wide
    EXPECT_FALSE(sf.suppressed("R8", 1));
}

// --------------------------------------------------------------- R2

TEST(LintR2, FlagsBannedCalls)
{
    auto fs = lintFixture("r2_bad.cc", "src/common/fake.cc");
    EXPECT_EQ(linesOf(fs, "R2"),
              (std::vector<int>{13, 19, 19, 20, 26, 32}));
    // Each diagnostic names a sanctioned replacement.
    for (const Finding &f : fs)
        EXPECT_TRUE(f.message.find("common/") != std::string::npos ||
                    f.message.find("std::chrono") != std::string::npos)
            << formatFinding(f);
}

TEST(LintR2, PassesSanctionedCode)
{
    auto fs = lintFixture("r2_good.cc", "src/common/good.cc");
    EXPECT_TRUE(fs.empty()) << formatFinding(fs.front());
}

TEST(LintR2, SuppressionSilencesTrailingAndPreceding)
{
    auto fs = lintFixture("r2_suppressed.cc", "src/common/sup.cc");
    EXPECT_TRUE(fs.empty()) << formatFinding(fs.front());
}

TEST(LintR2, PrintfAllowedInMainAndBench)
{
    std::string text = readFixture("r2_bad.cc");
    auto inMain = lintFileContents("src/main.cc", text, Options{});
    auto inBench = lintFileContents("bench/fig99.cc", text, Options{});
    for (const auto &fs : {inMain, inBench})
        for (const Finding &f : fs)
            EXPECT_EQ(f.message.find("printf"), std::string::npos)
                << formatFinding(f);
    // ...but the other bans still apply there.
    EXPECT_FALSE(inMain.empty());
}

// --------------------------------------------------------------- R5

TEST(LintR5, FlagsAllThreeHygieneViolations)
{
    auto fs = lintFixture("r5_bad.h", "src/common/bad.h");
    ASSERT_EQ(fs.size(), 3u);
    EXPECT_EQ(fs[0].rule, "R5");
    EXPECT_EQ(fs[0].line, 1); // missing #pragma once anchors at line 1
    std::set<std::string> gists;
    for (const Finding &f : fs)
        gists.insert(f.message.substr(0, f.message.find(' ')));
    EXPECT_EQ(gists.size(), 3u) << "three distinct R5 diagnostics";
}

TEST(LintR5, PassesHygienicHeader)
{
    auto fs = lintFixture("r5_good.h", "src/common/good.h");
    EXPECT_TRUE(fs.empty()) << formatFinding(fs.front());
}

TEST(LintR5, AllowFileSilencesWholeFile)
{
    auto fs = lintFixture("r5_suppressed.h", "src/common/sup.h");
    EXPECT_TRUE(fs.empty()) << formatFinding(fs.front());
}

TEST(LintR5, DoesNotApplyToSources)
{
    auto fs = lintFixture("r5_bad.h", "src/common/not_a_header.cc");
    EXPECT_TRUE(linesOf(fs, "R5").empty());
}

// -------------------------------------------------------- tree mode

TEST(LintTree, GoodTreeIsClean)
{
    Options opt;
    opt.root = fixturePath("tree_good");
    std::string error;
    auto fs = lintTree(opt, &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_TRUE(fs.empty()) << formatFinding(fs.front());
}

TEST(LintTree, BadTreeReportsPerFileViolations)
{
    Options opt;
    opt.root = fixturePath("tree_bad");
    std::string error;
    auto fs = lintTree(opt, &error);
    EXPECT_TRUE(error.empty()) << error;
    // Sorted by file, then line: the banned call in the source and the
    // missing #pragma once in the header.
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0], (Finding{"R2", "src/bad.cc", 11, fs[0].message}));
    EXPECT_EQ(fs[1], (Finding{"R5", "src/bad.h", 1, fs[1].message}));
}

TEST(LintTree, RuleFilterRestrictsFindings)
{
    Options opt;
    opt.root = fixturePath("tree_bad");
    opt.rules = {"R5"};
    std::string error;
    auto fs = lintTree(opt, &error);
    for (const Finding &f : fs)
        EXPECT_EQ(f.rule, "R5") << formatFinding(f);
    EXPECT_FALSE(fs.empty());
}

TEST(LintTree, BadRootSetsError)
{
    Options opt;
    opt.root = fixturePath("no_such_dir");
    std::string error;
    auto fs = lintTree(opt, &error);
    EXPECT_TRUE(fs.empty());
    EXPECT_FALSE(error.empty());
}

// ------------------------------------------------------- exit codes

int
runLint(const std::string &args)
{
    std::string cmd = std::string(H2_LINT_BIN) + " " + args +
                      " > /dev/null 2> /dev/null";
    int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(LintExitCodes, CleanTreeExitsZero)
{
    EXPECT_EQ(runLint("--root " + fixturePath("tree_good")), 0);
}

TEST(LintExitCodes, FindingsExitOne)
{
    EXPECT_EQ(runLint("--root " + fixturePath("tree_bad")), 1);
    EXPECT_EQ(runLint(fixturePath("r2_bad.cc")), 1);
}

TEST(LintExitCodes, UsageErrorsExitTwo)
{
    EXPECT_EQ(runLint("--no-such-flag"), 2);
    EXPECT_EQ(runLint("--root " + fixturePath("no_such_dir")), 2);
    EXPECT_EQ(runLint("--rules R99"), 2);
    EXPECT_EQ(runLint(fixturePath("no_such_file.cc")), 2);
}

TEST(LintExitCodes, ListRulesExitsZeroAndCoversEveryRule)
{
    EXPECT_EQ(runLint("--list-rules"), 0);
    EXPECT_EQ(ruleTable().size(), 2u);
}

} // namespace
} // namespace h2::lint
