/**
 * @file
 * Source rules: two textual rules the type system cannot express,
 * checked over the repository's own sources.
 *
 *  - Banned calls. std::sto*, rand/srand, strtok and time break
 *    either checked input (a throw or a silent saturation instead of
 *    an error naming the bad value) or run reproducibility; printf is
 *    banned outside the programs (src/main.cc, bench/, examples/).
 *  - Header hygiene. Headers carry #pragma once and have no `using
 *    namespace` and no <iostream>.
 *
 * The rules run on a blanked copy of each file: comments and string,
 * char and raw-string literals become spaces, so a banned name in a
 * comment or a message never counts, and line numbers still hold.
 * There is no suppression syntax: code that needs a banned call uses
 * the replacement the finding names.
 *
 * SourceRules.TreeIsClean walks src/, bench/, tests/ and examples/
 * and fails once per finding. The Lint* cases prove, on inline code
 * and on small trees written to a temporary directory, that blanking
 * (LintScrub), the banned calls (LintR2), header hygiene (LintR5) and
 * the tree walk (LintTree) flag what they should and pass what they
 * should.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#ifndef H2_SOURCE_DIR
#error "H2_SOURCE_DIR must point at the repository root (set by CMake)"
#endif

namespace h2 {
namespace {

bool
isWordChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * @p text with comments and string, char and raw-string literals
 * turned into spaces. Newlines are kept, so offsets map to the same
 * lines. An apostrophe after a word character is a digit separator
 * (30'000), not the start of a char literal.
 */
std::string
blank(const std::string &text)
{
    std::string out = text;
    auto erase = [&](size_t from, size_t to) {
        for (size_t i = from; i < to && i < out.size(); ++i)
            if (out[i] != '\n')
                out[i] = ' ';
    };
    // Index of the end of a quoted literal opened at @p open: past the
    // matching @p quote, skipping backslash escapes, or at the end of
    // the line for an unterminated one.
    auto quotedEnd = [&](size_t open, char quote) {
        size_t i = open + 1;
        while (i < text.size() && text[i] != quote && text[i] != '\n')
            i += text[i] == '\\' ? 2 : 1;
        return std::min(i + 1, text.size());
    };

    size_t i = 0;
    while (i < text.size()) {
        char c = text[i];
        char next = i + 1 < text.size() ? text[i + 1] : '\0';
        size_t end = i + 1;
        if (c == '/' && next == '/') {
            end = std::min(text.find('\n', i), text.size());
        } else if (c == '/' && next == '*') {
            size_t close = text.find("*/", i + 2);
            end = close == std::string::npos ? text.size() : close + 2;
        } else if (c == '"' && i > 0 && text[i - 1] == 'R' &&
                   (i == 1 || !isWordChar(text[i - 2]))) {
            // R"delim( ... )delim"
            size_t paren = text.find('(', i);
            std::string close(1, ')');
            close += text.substr(i + 1, paren - i - 1);
            close += '"';
            size_t at = text.find(close, paren);
            end = at == std::string::npos ? text.size()
                                          : at + close.size();
        } else if (c == '"') {
            end = quotedEnd(i, '"');
        } else if (c == '\'' && (i == 0 || !isWordChar(text[i - 1]))) {
            end = quotedEnd(i, '\'');
        } else {
            ++i;
            continue;
        }
        erase(i, end);
        i = end;
    }
    return out;
}

/** A banned call: the regex that finds it (the name is group 2) and
 *  what to use instead. */
struct BannedCall
{
    std::regex call;
    std::string use;
    bool programsMayCall = false;
};

std::regex
callOf(const std::string &names)
{
    return std::regex("(std\\s*::\\s*)?(" + names + ")\\s*\\(");
}

const std::vector<BannedCall> &
bannedCalls()
{
    static const std::vector<BannedCall> calls = {
        {callOf("stoi|stol|stoll|stoul|stoull|stof|stod|stold"),
         "h2::parseU64OrFatal, or tryParseU64/tryParseF64 and an error "
         "naming the value (common/parse.h)"},
        {callOf("rand|srand"),
         "h2::Rng (common/rng.h), seeded from RunConfig.seed"},
        {callOf("strtok"), "h2::splitOn (common/parse.h)"},
        {callOf("time"),
         "RunConfig.seed (h2::splitmix64) for seeds, "
         "std::chrono::steady_clock for elapsed time"},
        {callOf("printf"),
         "a returned string, JsonWriter (common/json.h) or h2::log "
         "(common/log.h); only src/main.cc, bench/ and examples/ print",
         true},
    };
    return calls;
}

/** One rule violation: where, what was found, and the fix. */
struct Finding
{
    size_t pos = 0; ///< byte offset in the file
    int line = 0;
    std::string what;
    std::string use;
};

bool
isHeader(const std::string &path)
{
    return path.ends_with(".h");
}

bool
isProgram(const std::string &path)
{
    return path == "src/main.cc" || path.starts_with("bench/") ||
           path.starts_with("examples/");
}

/** Every finding in @p text, read as the repo-relative @p path (which
 *  decides whether it is a header and whether it may print). */
std::vector<Finding>
check(const std::string &path, const std::string &text)
{
    const std::string code = blank(text);
    std::vector<Finding> out;
    auto lineOf = [&](size_t pos) {
        return 1 + int(std::count(code.begin(), code.begin() + pos, '\n'));
    };
    auto scan = [&](const std::regex &re, auto &&onMatch) {
        for (auto it = std::sregex_iterator(code.begin(), code.end(), re);
             it != std::sregex_iterator(); ++it)
            onMatch(*it);
    };

    for (const BannedCall &call : bannedCalls()) {
        if (call.programsMayCall && isProgram(path))
            continue;
        scan(call.call, [&](const std::smatch &m) {
            // Not a member (x.time()), another scope (a::rand()) or an
            // identifier tail (my_rand()).
            size_t pos = size_t(m.position(0));
            char prev = pos > 0 ? code[pos - 1] : ' ';
            if (isWordChar(prev) || prev == '.' || prev == ':' ||
                prev == '>')
                return;
            out.push_back({pos, lineOf(pos), m[2].str() + "()", call.use});
        });
    }

    if (isHeader(path)) {
        static const std::regex kPragmaOnce(R"(#\s*pragma\s+once\b)");
        if (!std::regex_search(code, kPragmaOnce))
            out.push_back({0, 1, "no #pragma once",
                           "#pragma once, the one include-guard "
                           "spelling"});
        struct Banned
        {
            std::regex re;
            std::string what, use;
        };
        static const std::vector<Banned> kHeaderBans = {
            {std::regex(R"(\busing\s+namespace\b)"), "using namespace",
             "qualified names; the directive leaks into every includer"},
            {std::regex(R"(#\s*include\s*<iostream>)"), "#include <iostream>",
             "<ostream> or <iosfwd> in the header, <iostream> in the .cc "
             "that prints"},
        };
        for (const Banned &ban : kHeaderBans)
            scan(ban.re, [&](const std::smatch &m) {
                size_t pos = size_t(m.position(0));
                out.push_back({pos, lineOf(pos), ban.what, ban.use});
            });
    }

    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) { return a.pos < b.pos; });
    return out;
}

using Lines = std::vector<std::pair<int, std::string>>;

/** (line, what) of each finding, for exact comparisons. */
Lines
summary(const std::vector<Finding> &findings)
{
    Lines out;
    for (const Finding &f : findings)
        out.emplace_back(f.line, f.what);
    return out;
}

TEST(LintScrub, StripsCommentsAndStrings)
{
    std::string code = blank("int a; // rand()\n"
                             "const char *s = \"rand() \\\" time()\";\n"
                             "/* std::stoul\n   strtok( */ int b;\n"
                             "char q = '\\'', d = '\"';\n");
    // Line structure is preserved.
    EXPECT_EQ(std::count(code.begin(), code.end(), '\n'), 5);
    for (const char *hidden : {"rand", "time", "stoul", "strtok", "\""})
        EXPECT_EQ(code.find(hidden), std::string::npos)
            << hidden << " survived blanking in:\n" << code;
    // Code after a comment and around char literals survives.
    for (const char *kept : {"int a;", "int b;", "char q =", ", d ="})
        EXPECT_NE(code.find(kept), std::string::npos) << kept;
}

TEST(LintScrub, DigitSeparatorIsNotACharLiteral)
{
    // A naive lexer eats everything after 30' as a char literal and
    // hides the next line from the rules.
    std::string code = blank("u64 n = 30'000;\nint rand();\n");
    EXPECT_NE(code.find("30'000"), std::string::npos);
    EXPECT_NE(code.find("int rand();"), std::string::npos);
}

TEST(LintScrub, RawStringsAreStripped)
{
    std::string code = blank("auto re = R\"x(time( )\" )x\"; int c;\n"
                             "auto p = R\"(rand\\()\";\nint x;\n");
    EXPECT_EQ(code.find("time"), std::string::npos) << code;
    EXPECT_EQ(code.find("rand"), std::string::npos) << code;
    EXPECT_NE(code.find("int c;"), std::string::npos);
    EXPECT_NE(code.find("int x;"), std::string::npos);
}

const char *const kBannedCallsCode = R"cc(#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>

unsigned long parseIt(const std::string &s)
{
    return std::stoul(s);
}

int noise()
{
    std::srand(std::time(nullptr));
    return rand() + std :: stoi("4");
}

char *firstField(char *s) { return std::strtok(s, ","); }

void report(double v) { std::printf("value=%f\n", v); }
)cc";

const Lines kAllBannedCalls = {
    {8, "stoul()"}, {13, "srand()"}, {13, "time()"}, {14, "rand()"},
    {14, "stoi()"}, {17, "strtok()"}, {19, "printf()"}};

TEST(LintR2, FlagsBannedCalls)
{
    std::vector<Finding> found = check("src/common/fake.cc", kBannedCallsCode);
    EXPECT_EQ(summary(found), kAllBannedCalls);
    // Each finding names its sanctioned replacement.
    for (const Finding &f : found)
        EXPECT_FALSE(f.use.empty()) << f.what;
}

TEST(LintR2, PrintfAllowedInMainAndBench)
{
    // The programs may print; every other ban still holds there.
    const Lines allButPrintf(kAllBannedCalls.begin(),
                             kAllBannedCalls.end() - 1);
    for (const char *program :
         {"src/main.cc", "bench/fig99.cc", "examples/demo.cpp"})
        EXPECT_EQ(summary(check(program, kBannedCallsCode)), allButPrintf)
            << program;
}

TEST(LintR2, PassesSanctionedCode)
{
    const char *code = R"cc(// stoul(s), rand() and time() in comments are fine.
#include <chrono>
#include <cstdlib>
#include "common/parse.h"

u64 parseIt(std::string_view s) { return parseU64OrFatal("n", s); }
double ref(const char *s) { return std::strtod(s, nullptr); }
u64 noise(u64 seed) { Rng rng(seed); return rng.next(); }
double elapsed(const Clock &c, const Clock *p)
{
    auto t0 = std::chrono::steady_clock::now();
    return c.time() + p->time() + sim::time(t0) + ::rand(); // scoped
}
int my_rand() { return 4; }
int stranded(int x) { return x + 30'000; }
const char *timestamp();
const char *msg = "call time() or printf(";
auto re = R"(rand\()";
)cc";
    for (const char *path : {"src/common/good.cc", "tests/good.cc"})
        EXPECT_TRUE(check(path, code).empty())
            << summary(check(path, code)).front().second;
}

const char *const kUnhygienicHeader = R"cc(// A header with all three faults.
#include <string>
#include <iostream>

using namespace std;

inline void shout() { cout << "loud\n"; }
)cc";

TEST(LintR5, FlagsAllThreeHygieneViolations)
{
    EXPECT_EQ(summary(check("src/common/bad.h", kUnhygienicHeader)),
              (Lines{{1, "no #pragma once"},
                     {3, "#include <iostream>"},
                     {5, "using namespace"}}));
}

TEST(LintR5, DoesNotApplyToSources)
{
    EXPECT_TRUE(check("src/common/bad.cc", kUnhygienicHeader).empty());
}

TEST(LintR5, PassesHygienicHeader)
{
    const char *hygienic = R"cc(// Mentions of #include <iostream> and
// using namespace std; in comments and strings do not count.
#pragma once

#include <ostream>

inline const char *doc() { return "#include <iostream> in a .cc"; }
inline void print(std::ostream &os) { os << doc(); }
)cc";
    EXPECT_TRUE(check("src/common/good.h", hygienic).empty())
        << summary(check("src/common/good.h", hygienic)).front().second;
}

namespace fs = std::filesystem;

/** The checked files under a tree and their findings. */
struct TreeReport
{
    std::vector<std::string> files; ///< repo-relative, sorted
    std::vector<std::pair<std::string, Finding>> findings; ///< by file
};

/** check() over every .h/.cc/.cpp file in @p root's src/, bench/,
 *  tests/ and examples/ (those that exist). */
TreeReport
checkTree(const fs::path &root)
{
    TreeReport report;
    for (const char *top : {"src", "bench", "tests", "examples"}) {
        if (!fs::is_directory(root / top))
            continue;
        for (const auto &entry :
             fs::recursive_directory_iterator(root / top)) {
            const fs::path &p = entry.path();
            if (entry.is_regular_file() &&
                (p.extension() == ".h" || p.extension() == ".cc" ||
                 p.extension() == ".cpp"))
                report.files.push_back(
                    fs::relative(p, root).generic_string());
        }
    }
    std::sort(report.files.begin(), report.files.end());
    for (const std::string &rel : report.files) {
        std::ifstream in(root / rel, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        for (Finding &f : check(rel, text.str()))
            report.findings.emplace_back(rel, std::move(f));
    }
    return report;
}

/** A fresh directory holding @p files (relative path, contents),
 *  removed when the object goes. */
class MiniTree
{
  public:
    explicit MiniTree(
        const std::vector<std::pair<std::string, std::string>> &files)
        : root_(fs::path(testing::TempDir()) /
                ("source_rules_" +
                 std::string(testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name()) +
                 "_" + std::to_string(::getpid())))
    {
        fs::remove_all(root_);
        for (const auto &[rel, text] : files) {
            fs::create_directories((root_ / rel).parent_path());
            std::ofstream(root_ / rel, std::ios::binary) << text;
        }
    }
    ~MiniTree() { fs::remove_all(root_); }
    MiniTree(const MiniTree &) = delete;
    MiniTree &operator=(const MiniTree &) = delete;

    const fs::path &root() const { return root_; }

  private:
    fs::path root_;
};

TEST(LintTree, GoodTreeIsClean)
{
    MiniTree tree({{"src/clean.h", "#pragma once\n#include <string>\n"
                                   "std::string greeting();\n"},
                   {"src/clean.cc",
                    "#include \"clean.h\"\nstd::string greeting()\n"
                    "{ return \"time(); rand() in a string\"; }\n"},
                   {"docs/notes.cc", "int r() { return rand(); }\n"}});
    TreeReport report = checkTree(tree.root());
    EXPECT_EQ(report.files,
              (std::vector<std::string>{"src/clean.cc", "src/clean.h"}));
    EXPECT_TRUE(report.findings.empty())
        << report.findings.front().first << ":"
        << report.findings.front().second.line;
}

TEST(LintTree, BadTreeReportsPerFileViolations)
{
    MiniTree tree({{"src/bad.h", "// no #pragma once\nint roll();\n"},
                   {"examples/bad.cpp",
                    "#include <cstdlib>\n\nint roll()\n{\n"
                    "    return std::rand();\n}\n"},
                   {"bench/ok.cc", "int main() { printf(\"hi\"); }\n"}});
    // Sorted by file, then line.
    std::vector<std::pair<std::string, Lines>> got;
    for (const auto &[rel, f] : checkTree(tree.root()).findings)
        got.emplace_back(rel, Lines{{f.line, f.what}});
    EXPECT_EQ(got, (std::vector<std::pair<std::string, Lines>>{
                       {"examples/bad.cpp", {{5, "rand()"}}},
                       {"src/bad.h", {{1, "no #pragma once"}}}}));
}

TEST(SourceRules, TreeIsClean)
{
    TreeReport report = checkTree(H2_SOURCE_DIR);
    for (const auto &[rel, f] : report.findings)
        ADD_FAILURE() << rel << ":" << f.line << ": " << f.what << " — use "
                      << f.use;
    EXPECT_GT(report.files.size(), 100u);
    EXPECT_TRUE(std::any_of(report.files.begin(), report.files.end(),
                            [](const std::string &rel) {
                                return rel.starts_with("examples/");
                            }))
        << "examples/ was not scanned";
}

} // namespace
} // namespace h2
