/**
 * @file
 * h2lint: project-specific static analysis for the Hybrid2 simulator.
 *
 * Token/regex-level checks (no libclang) that lock in structural
 * invariants the type system cannot express:
 *
 *   R2 banned-call      crash- or determinism-hostile stdlib calls
 *                       (std::sto*, rand, time, strtok, printf outside
 *                       src/main.cc and bench/) with the sanctioned
 *                       replacement named in the diagnostic.
 *   R5 header-hygiene   headers carry #pragma once, no `using
 *                       namespace` at namespace scope, no <iostream>.
 *
 * Suppressions: `// h2lint: allow(R2)` (comma list accepted) silences
 * findings on the comment's line and the next line; `// h2lint:
 * allow-file(R5)` silences a rule for the whole file.
 *
 * The analysis runs on comment- and string-stripped text, so banned
 * tokens in comments or log messages never trip a rule.
 *
 * What a registered design must ship (golden snapshots, a README
 * design-table row, docs/metrics.md rows for its Metrics.detail keys)
 * is checked at run time instead, against the design registry, by the
 * GoldenMetrics and DesignContract tests.
 */

#pragma once

#include <set>
#include <string>
#include <vector>

namespace h2::lint {

/** One diagnostic: rule ID, repo-relative file, 1-based line. */
struct Finding
{
    std::string rule;
    std::string file;
    int line = 0;
    std::string message;

    bool operator==(const Finding &) const = default;
};

/** Static description of one rule, for --list-rules and the README. */
struct RuleInfo
{
    std::string id;
    std::string name;
    std::string summary;
};

/** All rules in ID order. */
const std::vector<RuleInfo> &ruleTable();

/** True iff @p id names a known rule. */
bool isKnownRule(const std::string &id);

struct Options
{
    /** Repo root; tree mode scans src/, bench/, tests/, tools/ under
     *  it. */
    std::string root = ".";
    /** Rules to run; empty = all. */
    std::set<std::string> rules;
};

/** True when @p id is enabled under @p opt. */
bool ruleEnabled(const Options &opt, const std::string &id);

/**
 * Per-file rules (R2, R5) over one file's contents. @p relPath is
 * the repo-relative path — rule applicability (src/ vs bench/ vs
 * header) is derived from it, so fixture tests can lint an on-disk
 * file under any logical path.
 */
std::vector<Finding> lintFileContents(const std::string &relPath,
                                      const std::string &text,
                                      const Options &opt);

/**
 * Whole-tree mode: the per-file rules over every .h/.cc/.cpp under
 * src/, bench/, tests/, and tools/ (tests/lint_fixtures/ excluded —
 * its files are deliberate violations). On an unusable root (no
 * sources beneath it), returns empty and sets @p error.
 */
std::vector<Finding> lintTree(const Options &opt, std::string *error);

/** "file:line: [R2] message" — one line, no trailing newline. */
std::string formatFinding(const Finding &f);

namespace detail {

/**
 * Lexing support, exposed for the unit tests.
 *
 * `code` is @p text with comments and string/char literals replaced by
 * spaces (newlines kept, so offsets map to the same line numbers).
 * Suppression comments are parsed into the two sets.
 */
struct ScrubbedFile
{
    std::string code;
    /** (rule, line) pairs silenced by `h2lint: allow(...)`; the line
     *  recorded is every line the comment spans plus the next one. */
    std::set<std::pair<std::string, int>> allowLines;
    /** Rules silenced file-wide by `h2lint: allow-file(...)`. */
    std::set<std::string> allowFile;

    bool suppressed(const std::string &rule, int line) const;
};

ScrubbedFile scrub(const std::string &text);

/** 1-based line of byte offset @p pos in @p text. */
int lineOf(const std::string &text, size_t pos);

} // namespace detail

} // namespace h2::lint
