/**
 * @file
 * Figure 12 (a/b/c) reproduction: an alias for `figures fig12`. The
 * entry, its scenarios and its paper values live in bench/figures.cc.
 *
 * Paper "All" geomeans at 1 GB: MPOD 1.318, CHA 1.371, LGM 1.429,
 * TAGLESS 1.417, DFC 1.547, HYBRID2 1.542.
 */

#include <string>
#include <vector>

namespace h2::bench {
int runFigures(std::vector<std::string> ids, int argc, char **argv);
} // namespace h2::bench

int
main(int argc, char **argv)
{
    return h2::bench::runFigures({"fig12"}, argc, argv);
}
