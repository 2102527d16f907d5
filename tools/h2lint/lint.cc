#include "lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
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
    {"R3", "design-coverage",
     "every H2_REGISTER_DESIGN has tests/golden/<name>_*.json snapshots "
     "and a row in the README design table"},
    {"R4", "metrics-manifest",
     "every Metrics.detail stats key emitted in src/ is documented in "
     "docs/metrics.md, and every manifest row is emitted by src/"},
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
    out.codeKeepStrings = text;

    enum class St { Code, LineComment, BlockComment, Str, Chr, RawStr };
    St st = St::Code;
    std::string comment;      // text of the comment in flight
    int commentStart = 0;     // its first line
    int line = 1;
    std::string rawDelim;     // raw-string closing delimiter ")xyz""

    auto blankBoth = [&](size_t i) {
        if (text[i] != '\n') {
            out.code[i] = ' ';
            out.codeKeepStrings[i] = ' ';
        }
    };
    auto blankCodeOnly = [&](size_t i) {
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
                blankBoth(i);
            } else if (c == '/' && next == '*') {
                st = St::BlockComment;
                comment.clear();
                commentStart = line;
                blankBoth(i);
            } else if (c == '"' &&
                       (i == 0 || text[i - 1] != 'R' ||
                        (i > 1 && isWordChar(text[i - 2])))) {
                st = St::Str;
                blankCodeOnly(i);
            } else if (c == '"') {
                // R"delim( ... )delim"
                st = St::RawStr;
                rawDelim = ")";
                for (size_t j = i + 1; j < text.size() && text[j] != '(';
                     ++j)
                    rawDelim += text[j];
                rawDelim += '"';
                blankCodeOnly(i);
            } else if (c == '\'' && (i == 0 || !isWordChar(text[i - 1]))) {
                // The word-char guard keeps digit separators (30'000)
                // out of the char-literal state.
                st = St::Chr;
                blankCodeOnly(i);
            }
            break;
        case St::LineComment:
            if (c == '\n') {
                parseSuppressions(comment, commentStart, line, out);
                st = St::Code;
            } else {
                comment += c;
                blankBoth(i);
            }
            break;
        case St::BlockComment:
            if (c == '*' && next == '/') {
                parseSuppressions(comment, commentStart, line, out);
                blankBoth(i);
                blankBoth(i + 1);
                ++i;
                st = St::Code;
            } else {
                comment += c;
                blankBoth(i);
            }
            break;
        case St::Str:
            if (c == '\\' && next != '\0') {
                blankCodeOnly(i);
                blankCodeOnly(i + 1);
                ++i;
            } else if (c == '"') {
                blankCodeOnly(i);
                st = St::Code;
            } else {
                blankCodeOnly(i);
            }
            break;
        case St::Chr:
            if (c == '\\' && next != '\0') {
                blankCodeOnly(i);
                blankCodeOnly(i + 1);
                ++i;
            } else if (c == '\'') {
                blankCodeOnly(i);
                st = St::Code;
            } else {
                blankCodeOnly(i);
            }
            break;
        case St::RawStr:
            if (c == ')' &&
                text.compare(i, rawDelim.size(), rawDelim) == 0) {
                for (size_t j = 0; j < rawDelim.size(); ++j)
                    blankCodeOnly(i + j);
                i += rawDelim.size() - 1;
                st = St::Code;
            } else {
                blankCodeOnly(i);
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

// ---------------------------------------------------------------- R3

void
checkDesignCoverage(const fs::path &root, const std::string &relPath,
                    const ScrubbedFile &sf, std::vector<Finding> &out)
{
    if (!startsWith(relPath, "src/"))
        return;
    static const std::regex kRegister(
        R"(H2_REGISTER_DESIGN\s*\(\s*(\w+))");
    const std::string &code = sf.code;
    for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                        kRegister);
         it != std::sregex_iterator(); ++it) {
        size_t pos = size_t(it->position(0));
        // Skip the macro's own definition.
        size_t bol = code.rfind('\n', pos);
        bol = bol == std::string::npos ? 0 : bol + 1;
        size_t firstNonWs = code.find_first_not_of(" \t", bol);
        if (firstNonWs != std::string::npos && code[firstNonWs] == '#')
            continue;

        std::string name = (*it)[1].str();
        int line = detail::lineOf(code, pos);

        bool hasGolden = false;
        fs::path goldenDir = root / "tests" / "golden";
        if (fs::exists(goldenDir))
            for (auto &e : fs::recursive_directory_iterator(goldenDir)) {
                std::string fn = e.path().filename().string();
                if (e.is_regular_file() &&
                    startsWith(fn, name + "_") && endsWith(fn, ".json")) {
                    hasGolden = true;
                    break;
                }
            }
        if (!hasGolden)
            emit(out, sf, "R3", relPath, line,
                 "design '" + name +
                     "' is registered but has no golden snapshot "
                     "tests/golden/" +
                     name +
                     "_*.json — add a GoldenMetrics test and generate "
                     "one with H2_UPDATE_GOLDEN=1 ctest -R "
                     "GoldenMetrics");

        bool inReadme = false;
        if (auto readme = readFile(root / "README.md")) {
            std::istringstream lines(*readme);
            std::string l;
            while (std::getline(lines, l))
                if (l.find('|') != std::string::npos &&
                    l.find("`" + name + "`") != std::string::npos) {
                    inReadme = true;
                    break;
                }
        }
        if (!inReadme)
            emit(out, sf, "R3", relPath, line,
                 "design '" + name +
                     "' is registered but missing from the README "
                     "design table — add a `" +
                     name + "` row");
    }
}

// ---------------------------------------------------------------- R4

struct EmittedKey
{
    std::string key; ///< literal key, or suffix when viaPrefix
    bool viaPrefix = false;
    std::string file;
    int line = 0;
    /** `h2lint: allow(R4)` at the emission site: the key is exempt
     *  from the must-be-documented direction but still counts as
     *  emitted for the dead-docs direction. */
    bool suppressed = false;
};

/** Parse `out.add("k", ...)` / `out.add(prefix + ".k", ...)` emission
 *  sites (receiver names out/detail/stats by project convention). */
void
scanEmittedKeys(const std::string &relPath, const ScrubbedFile &sf,
                std::vector<EmittedKey> &keys,
                std::vector<Finding> &out)
{
    const std::string &code = sf.codeKeepStrings;
    static const std::regex kCall(
        R"(\b(?:out|detail|stats)\s*\.\s*(?:add|increment)\s*\()");
    static const std::regex kLiteral(R"(^\s*"([^"]+)\")");
    static const std::regex kPrefixed(R"(^\s*\w+\s*\+\s*"\.([^"]+)\")");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kCall);
         it != std::sregex_iterator(); ++it) {
        size_t argPos = size_t(it->position(0)) + it->length(0);
        std::string rest = code.substr(argPos, 200);
        int line = detail::lineOf(code, size_t(it->position(0)));
        std::smatch m;
        bool quiet = sf.suppressed("R4", line);
        if (std::regex_search(rest, m, kLiteral)) {
            keys.push_back({m[1].str(), false, relPath, line, quiet});
        } else if (std::regex_search(rest, m, kPrefixed)) {
            keys.push_back({m[1].str(), true, relPath, line, quiet});
        } else {
            emit(out, sf, "R4", relPath, line,
                 "stats key is neither a string literal nor the "
                 "`prefix + \".suffix\"` form — h2lint cannot check it "
                 "against docs/metrics.md; use one of the two checkable "
                 "shapes");
        }
    }
}

void
checkMetricsManifest(const fs::path &root,
                     const std::vector<EmittedKey> &keys,
                     std::vector<Finding> &out)
{
    auto manifestText = readFile(root / "docs" / "metrics.md");
    if (!manifestText) {
        out.push_back({"R4", "docs/metrics.md", 1,
                       "missing docs/metrics.md — the checked-in "
                       "manifest of every Metrics.detail stats key"});
        return;
    }

    // Every backticked token in the first cell of a table row is a
    // documented key — rows may group sibling instances, e.g.
    // `fm.reads`, `nm.reads`.
    std::map<std::string, int> documented; // key -> manifest line
    {
        static const std::regex kRow(R"(^\s*\|([^|]*)\|)");
        static const std::regex kTick("`([^`]+)`");
        std::istringstream lines(*manifestText);
        std::string l;
        int n = 0;
        while (std::getline(lines, l)) {
            ++n;
            std::smatch m;
            if (!std::regex_search(l, m, kRow))
                continue;
            std::string cell = m[1].str();
            for (auto it = std::sregex_iterator(cell.begin(), cell.end(),
                                                kTick);
                 it != std::sregex_iterator(); ++it)
                documented.emplace((*it)[1].str(), n);
        }
    }

    std::set<std::string> literals, suffixes;
    for (const EmittedKey &k : keys)
        (k.viaPrefix ? suffixes : literals).insert(k.key);

    // Every emitted key must be documented.
    for (const EmittedKey &k : keys) {
        if (k.suppressed)
            continue;
        if (!k.viaPrefix) {
            if (!documented.count(k.key))
                out.push_back(
                    {"R4", k.file, k.line,
                     "stats key '" + k.key +
                         "' is not documented in docs/metrics.md — add "
                         "a manifest row (every Metrics.detail key is "
                         "documented)"});
        } else {
            bool found = false;
            for (const auto &[doc, _] : documented)
                if (endsWith(doc, "." + k.key)) {
                    found = true;
                    break;
                }
            if (!found)
                out.push_back(
                    {"R4", k.file, k.line,
                     "prefixed stats key '<prefix>." + k.key +
                         "' has no docs/metrics.md row ending in '." +
                         k.key + "' — document each emitted prefix "
                         "instance"});
        }
    }

    // Every documented key must be emitted (no dead docs).
    for (const auto &[doc, line] : documented) {
        if (literals.count(doc))
            continue;
        bool found = false;
        for (const std::string &s : suffixes)
            if (endsWith(doc, "." + s)) {
                found = true;
                break;
            }
        if (!found)
            out.push_back(
                {"R4", "docs/metrics.md", line,
                 "documents '" + doc +
                     "' but no src/ code emits it — delete the row or "
                     "restore the stat"});
    }
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

    std::vector<EmittedKey> keys;
    for (const std::string &rel : files) {
        auto text = readFile(root / rel);
        if (!text)
            continue;
        ScrubbedFile sf = detail::scrub(*text);
        if (ruleEnabled(opt, "R2"))
            checkBannedCalls(rel, sf, out);
        if (ruleEnabled(opt, "R5"))
            checkHeaderHygiene(rel, sf, out);
        if (ruleEnabled(opt, "R3"))
            checkDesignCoverage(root, rel, sf, out);
        if (ruleEnabled(opt, "R4") && startsWith(rel, "src/"))
            scanEmittedKeys(rel, sf, keys, out);
    }
    if (ruleEnabled(opt, "R4"))
        checkMetricsManifest(root, keys, out);

    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
    return out;
}

} // namespace h2::lint
