/**
 * @file
 * h2lint CLI.
 *
 * Exit codes (pinned by tests/test_h2lint.cc):
 *   0  clean — no findings
 *   1  findings reported (one per stdout line, `file:line: [Rn] ...`)
 *   2  usage error (unknown flag/rule, unusable --root, unreadable file)
 *
 * Tree mode (default) walks src/, bench/, tests/, tools/ under --root
 * and runs every rule (R2, R5) on each file. With explicit file
 * operands it runs them on just those files — that is the mode CI's
 * seeded-violation check uses.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "lint.h"

namespace {

int
usage(std::ostream &os, int rc)
{
    os << "usage: h2lint [--root DIR] [--rules R2,R5] "
          "[--list-rules] [file...]\n"
          "\n"
          "Project-specific static analysis for the Hybrid2 simulator.\n"
          "Without file operands, walks src/, bench/, tests/, tools/\n"
          "under --root (default: .) and runs all rules; with files,\n"
          "runs them on just those files.\n"
          "\n"
          "  --root DIR     repo root for the tree walk\n"
          "  --rules LIST   comma-separated rule IDs to enable\n"
          "  --list-rules   print the rule table and exit\n"
          "\n"
          "Suppressions: `// h2lint: allow(R2)` silences the comment's\n"
          "line and the next; `// h2lint: allow-file(R5)` the file.\n";
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    h2::lint::Options opt;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return usage(std::cout, 0);
        if (arg == "--list-rules") {
            for (const auto &r : h2::lint::ruleTable())
                std::cout << r.id << "  " << r.name << "\n    "
                          << r.summary << "\n";
            return 0;
        }
        if (arg == "--root") {
            if (++i == argc) {
                std::cerr << "h2lint: --root needs a directory\n";
                return 2;
            }
            opt.root = argv[i];
            continue;
        }
        if (arg == "--rules") {
            if (++i == argc) {
                std::cerr << "h2lint: --rules needs a comma list\n";
                return 2;
            }
            for (std::string_view id : h2::splitOn(argv[i], ',')) {
                std::string rule(id);
                if (!h2::lint::isKnownRule(rule)) {
                    std::cerr << "h2lint: unknown rule '" << rule
                              << "' (see --list-rules)\n";
                    return 2;
                }
                opt.rules.insert(rule);
            }
            continue;
        }
        if (arg.rfind("--", 0) == 0) {
            std::cerr << "h2lint: unknown option '" << arg << "'\n";
            return usage(std::cerr, 2);
        }
        files.push_back(arg);
    }

    std::vector<h2::lint::Finding> findings;
    if (files.empty()) {
        std::string error;
        findings = h2::lint::lintTree(opt, &error);
        if (!error.empty()) {
            std::cerr << "h2lint: " << error << "\n";
            return 2;
        }
    } else {
        for (const std::string &f : files) {
            std::ifstream in(f, std::ios::binary);
            if (!in) {
                std::cerr << "h2lint: cannot read '" << f << "'\n";
                return 2;
            }
            std::ostringstream buf;
            buf << in.rdbuf();
            // Rule applicability (src/ vs bench/ vs main.cc) keys off
            // the repo-relative path, so resolve against --root when
            // the file lives under it.
            std::error_code ec;
            std::string rel =
                std::filesystem::proximate(f, opt.root, ec)
                    .generic_string();
            if (ec || rel.rfind("..", 0) == 0)
                rel = f;
            auto fs = h2::lint::lintFileContents(rel, buf.str(), opt);
            findings.insert(findings.end(), fs.begin(), fs.end());
        }
    }

    for (const auto &f : findings)
        std::cout << h2::lint::formatFinding(f) << "\n";
    std::cerr << "h2lint: " << findings.size() << " finding(s)\n";
    return findings.empty() ? 0 : 1;
}
