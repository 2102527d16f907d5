#include "lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <regex>
#include <sstream>
#include <string_view>
#include <tuple>

namespace fs = std::filesystem;

namespace h2::lint {

namespace {

const std::vector<RuleInfo> kRules = {
    {"R2", "banned-call",
     "no std::sto*/rand/time/strtok in checked code, no printf outside "
     "src/main.cc and bench/ — each diagnostic names the sanctioned "
     "replacement"},
    {"R5", "header-hygiene",
     "headers carry #pragma once, no `using namespace`, no <iostream>"},
};

bool
startsWith(const std::string &s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool
isHeaderPath(const std::string &p)
{
    return endsWith(p, ".h") || endsWith(p, ".hpp");
}

bool
isSourcePath(const std::string &p)
{
    return isHeaderPath(p) || endsWith(p, ".cc") || endsWith(p, ".cpp");
}

bool
isWordChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
}

} // namespace

const std::vector<RuleInfo> &
ruleTable()
{
    return kRules;
}

bool
isKnownRule(const std::string &id)
{
    return std::any_of(kRules.begin(), kRules.end(),
                       [&](const RuleInfo &r) { return r.id == id; });
}

bool
ruleEnabled(const Options &opt, const std::string &id)
{
    return opt.rules.empty() || opt.rules.count(id) != 0;
}

std::string
formatFinding(const Finding &f)
{
    return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message;
}

namespace detail {

int
lineOf(const std::string &text, size_t pos)
{
    int line = 1;
    for (size_t i = 0; i < pos && i < text.size(); ++i)
        if (text[i] == '\n')
            ++line;
    return line;
}

bool
ScrubbedFile::suppressed(const std::string &rule, int line) const
{
    return allowFile.count(rule) != 0 ||
           allowLines.count({rule, line}) != 0;
}

namespace {

/** Record `h2lint: allow(...)` / `allow-file(...)` directives found in
 *  one comment spanning [startLine, endLine]. */
void
parseSuppressions(const std::string &comment, int startLine, int endLine,
                  ScrubbedFile &out)
{
    static const std::regex kAllow(
        R"(h2lint:\s*(allow|allow-file)\(([^)]*)\))");
    for (auto it = std::sregex_iterator(comment.begin(), comment.end(),
                                        kAllow);
         it != std::sregex_iterator(); ++it) {
        std::string kind = (*it)[1].str();
        std::string list = (*it)[2].str();
        // Split the comma list by hand (the common layer's splitOn
        // returns string_views into `list`, fine here too, but a
        // two-line loop avoids the include).
        std::istringstream items(list);
        std::string id;
        while (std::getline(items, id, ',')) {
            id.erase(std::remove_if(id.begin(), id.end(),
                                    [](char c) { return c == ' '; }),
                     id.end());
            if (id.empty())
                continue;
            if (kind == "allow-file") {
                out.allowFile.insert(id);
            } else {
                for (int l = startLine; l <= endLine + 1; ++l)
                    out.allowLines.insert({id, l});
            }
        }
    }
}

} // namespace

ScrubbedFile
scrub(const std::string &text)
{
    ScrubbedFile out;
    out.code = text;

    enum class St { Code, LineComment, BlockComment, Str, Chr, RawStr };
    St st = St::Code;
    std::string comment;      // text of the comment in flight
    int commentStart = 0;     // its first line
    int line = 1;
    std::string rawDelim;     // raw-string closing delimiter ")xyz""

    auto blank = [&](size_t i) {
        if (text[i] != '\n')
            out.code[i] = ' ';
    };

    for (size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        char next = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (st) {
        case St::Code:
            if (c == '/' && next == '/') {
                st = St::LineComment;
                comment.clear();
                commentStart = line;
                blank(i);
            } else if (c == '/' && next == '*') {
                st = St::BlockComment;
                comment.clear();
                commentStart = line;
                blank(i);
            } else if (c == '"' &&
                       (i == 0 || text[i - 1] != 'R' ||
                        (i > 1 && isWordChar(text[i - 2])))) {
                st = St::Str;
                blank(i);
            } else if (c == '"') {
                // R"delim( ... )delim"
                st = St::RawStr;
                rawDelim = ")";
                for (size_t j = i + 1; j < text.size() && text[j] != '(';
                     ++j)
                    rawDelim += text[j];
                rawDelim += '"';
                blank(i);
            } else if (c == '\'' && (i == 0 || !isWordChar(text[i - 1]))) {
                // The word-char guard keeps digit separators (30'000)
                // out of the char-literal state.
                st = St::Chr;
                blank(i);
            }
            break;
        case St::LineComment:
            if (c == '\n') {
                parseSuppressions(comment, commentStart, line, out);
                st = St::Code;
            } else {
                comment += c;
                blank(i);
            }
            break;
        case St::BlockComment:
            if (c == '*' && next == '/') {
                parseSuppressions(comment, commentStart, line, out);
                blank(i);
                blank(i + 1);
                ++i;
                st = St::Code;
            } else {
                comment += c;
                blank(i);
            }
            break;
        case St::Str:
            if (c == '\\' && next != '\0') {
                blank(i);
                blank(i + 1);
                ++i;
            } else if (c == '"') {
                blank(i);
                st = St::Code;
            } else {
                blank(i);
            }
            break;
        case St::Chr:
            if (c == '\\' && next != '\0') {
                blank(i);
                blank(i + 1);
                ++i;
            } else if (c == '\'') {
                blank(i);
                st = St::Code;
            } else {
                blank(i);
            }
            break;
        case St::RawStr:
            if (c == ')' &&
                text.compare(i, rawDelim.size(), rawDelim) == 0) {
                for (size_t j = 0; j < rawDelim.size(); ++j)
                    blank(i + j);
                i += rawDelim.size() - 1;
                st = St::Code;
            } else {
                blank(i);
            }
            break;
        }
        if (text[i] == '\n')
            ++line;
    }
    if (st == St::LineComment || st == St::BlockComment)
        parseSuppressions(comment, commentStart, line, out);
    return out;
}

} // namespace detail

namespace {

using detail::ScrubbedFile;

void
emit(std::vector<Finding> &out, const ScrubbedFile &sf,
     const std::string &rule, const std::string &file, int line,
     const std::string &message)
{
    if (!sf.suppressed(rule, line))
        out.push_back({rule, file, line, message});
}

// ---------------------------------------------------------------- R2

struct BannedCall
{
    const char *pattern; ///< function-name alternation, no prefix/suffix
    const char *why;
};

void
checkBannedCalls(const std::string &relPath, const ScrubbedFile &sf,
                 std::vector<Finding> &out)
{
    const bool printfOk =
        relPath == "src/main.cc" || startsWith(relPath, "bench/");
    static const std::vector<BannedCall> kBanned = {
        {"(stoi|stol|stoll|stoul|stoull|stof|stod|stold)",
         "throws (or silently saturates) on bad input — use the "
         "from_chars-based h2::parseU64/h2::parseFloat (common/parse.h), "
         "which return errors the caller must handle"},
        {"(rand|srand)",
         "non-deterministic global state — all randomness flows through "
         "h2::Rng (common/rng.h), seeded from RunConfig.seed"},
        {"(strtok)",
         "mutates global state and its input — use h2::splitOn "
         "(common/parse.h)"},
        {"(time)",
         "wall-clock values break run reproducibility — derive seeds "
         "from RunConfig.seed (h2::splitmix64) and measure elapsed time "
         "with std::chrono::steady_clock"},
        {"(printf)",
         "library code must not write to stdout — build strings, use "
         "JsonWriter (common/json.h) or h2::log (common/log.h); direct "
         "printing belongs in src/main.cc and bench/ only"},
    };

    const std::string &code = sf.code;
    for (const BannedCall &b : kBanned) {
        if (printfOk && std::string_view(b.pattern) == "(printf)")
            continue;
        std::regex re("(std\\s*::\\s*)?" + std::string(b.pattern) +
                      "\\s*\\(");
        for (auto it = std::sregex_iterator(code.begin(), code.end(), re);
             it != std::sregex_iterator(); ++it) {
            size_t pos = size_t(it->position(0));
            // Reject members (x.time(...)), other qualifications
            // (foo::rand), and identifier tails (my_rand).
            if (pos > 0) {
                char prev = code[pos - 1];
                if (isWordChar(prev) || prev == '.' || prev == ':' ||
                    prev == '>')
                    continue;
            }
            emit(out, sf, "R2", relPath, detail::lineOf(code, pos),
                 (*it)[2].str() + "(): " + b.why);
        }
    }
}

// ---------------------------------------------------------------- R5

void
checkHeaderHygiene(const std::string &relPath, const ScrubbedFile &sf,
                   std::vector<Finding> &out)
{
    if (!isHeaderPath(relPath))
        return;
    static const std::regex kPragma(R"(#\s*pragma\s+once\b)");
    if (!std::regex_search(sf.code, kPragma))
        emit(out, sf, "R5", relPath, 1,
             "header is missing #pragma once (the project replaced "
             "#ifndef guards — one spelling, no name collisions)");

    static const std::regex kUsingNs(R"(\busing\s+namespace\b)");
    for (auto it = std::sregex_iterator(sf.code.begin(), sf.code.end(),
                                        kUsingNs);
         it != std::sregex_iterator(); ++it)
        emit(out, sf, "R5", relPath,
             detail::lineOf(sf.code, size_t(it->position(0))),
             "`using namespace` in a header leaks the namespace into "
             "every includer — qualify names instead");

    // The fully-scrubbed view: a real #include directive can't live
    // inside a string literal, and a docstring *mentioning* the
    // directive must not count (pinned by the r5_good.h fixture).
    static const std::regex kIostream(
        R"(#\s*include\s*[<"]iostream[>"])");
    for (auto it = std::sregex_iterator(sf.code.begin(), sf.code.end(),
                                        kIostream);
         it != std::sregex_iterator(); ++it)
        emit(out, sf, "R5", relPath,
             detail::lineOf(sf.code, size_t(it->position(0))),
             "<iostream> in a header drags iostream static-init into "
             "every includer — use <ostream>/<iosfwd> in the header and "
             "include <iostream> in the .cc that actually prints");
}

// ------------------------------------------------------- tree helpers

std::optional<std::string>
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Repo files eligible for per-file rules, repo-relative, sorted. */
std::vector<std::string>
collectFiles(const fs::path &root, std::string *error)
{
    std::vector<std::string> files;
    for (const char *top : {"src", "bench", "tests", "tools"}) {
        fs::path dir = root / top;
        if (!fs::exists(dir))
            continue;
        for (auto it = fs::recursive_directory_iterator(dir);
             it != fs::recursive_directory_iterator(); ++it) {
            if (it->is_directory() &&
                it->path().filename() == "lint_fixtures") {
                // Deliberate violations driving the lint's own tests.
                it.disable_recursion_pending();
                continue;
            }
            if (!it->is_regular_file())
                continue;
            std::string rel =
                fs::relative(it->path(), root).generic_string();
            if (isSourcePath(rel))
                files.push_back(rel);
        }
    }
    if (files.empty() && error)
        *error = "no source files under " + root.string() +
                 " (expected src/, bench/, tests/, tools/) — is --root "
                 "the repo root?";
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace

std::vector<Finding>
lintFileContents(const std::string &relPath, const std::string &text,
                 const Options &opt)
{
    std::vector<Finding> out;
    if (!isSourcePath(relPath))
        return out;
    ScrubbedFile sf = detail::scrub(text);
    if (ruleEnabled(opt, "R2"))
        checkBannedCalls(relPath, sf, out);
    if (ruleEnabled(opt, "R5"))
        checkHeaderHygiene(relPath, sf, out);
    return out;
}

std::vector<Finding>
lintTree(const Options &opt, std::string *error)
{
    std::vector<Finding> out;
    fs::path root = opt.root;
    std::error_code ec;
    if (!fs::is_directory(root, ec)) {
        if (error)
            *error = "root '" + opt.root + "' is not a directory";
        return out;
    }
    std::string walkError;
    std::vector<std::string> files = collectFiles(root, &walkError);
    if (!walkError.empty()) {
        if (error)
            *error = walkError;
        return out;
    }

    for (const std::string &rel : files) {
        auto text = readFile(root / rel);
        if (!text)
            continue;
        std::vector<Finding> found = lintFileContents(rel, *text, opt);
        out.insert(out.end(), found.begin(), found.end());
    }

    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
    return out;
}

} // namespace h2::lint
