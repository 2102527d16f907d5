/**
 * @file
 * Crash-safe sweep result journal (h2sim --journal / --resume).
 *
 * Every completed sweep point is appended as one self-contained JSONL
 * record and pushed to stable storage (fflush + fsync) before the
 * sweep moves on, so a crash or a kill -9 loses at most the points
 * still in flight. A later run with --resume loads the journal, seeds
 * the sweep with the recorded outcomes, and re-simulates only what is
 * missing — the resumed report is bit-identical to an uninterrupted
 * run because metrics doubles round-trip exactly (JsonWriter emits
 * shortest-round-trip form).
 *
 * Record shape (one line, compact):
 *   {"key":"lbm|dfc","ok":true,"wall_ms":812,"timed_out":false,
 *    "metrics":{...Metrics::writeJson...}}
 *   {"key":"mcf|hybrid2","ok":false,"wall_ms":42,"timed_out":false,
 *    "error":"..."}
 *
 * Keys are looked up by name and unknown keys are ignored, so journals
 * written by older versions (which carried a per-point retry count)
 * still load.
 *
 * A torn final line (the record being written when the process died)
 * is expected and skipped with a warning on load; a malformed record
 * anywhere earlier is a corrupt journal and a hard error. Duplicate
 * keys are legal — append-only across resumed runs — and the last
 * record wins.
 */

#pragma once

#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "sim/runner.h"

namespace h2::sim {

class ResultJournal
{
  public:
    /** Open @p path for appending; fatal (capturable) on failure. */
    explicit ResultJournal(const std::string &path);
    ~ResultJournal();

    ResultJournal(const ResultJournal &) = delete;
    ResultJournal &operator=(const ResultJournal &) = delete;

    /** Append one record and fsync it. Thread-safe (sweep workers call
     *  this concurrently); fatal (capturable) on a write error. */
    void append(const std::string &key, const RunOutcome &outcome);

    const std::string &path() const { return journalPath; }

    /**
     * Load all records from @p path; missing file is an empty map (a
     * fresh --resume is a fresh run). Later duplicates win. Returns
     * nullopt with @p error on a corrupt journal; a torn final line is
     * tolerated with a warning.
     */
    static std::optional<std::map<std::string, RunOutcome>>
    load(const std::string &path, std::string *error);

    /** One outcome as its JSONL record text (no trailing newline). */
    static std::string formatRecord(const std::string &key,
                                    const RunOutcome &outcome);

    /** Parse one record line; nullopt + @p error when malformed. */
    static std::optional<std::pair<std::string, RunOutcome>>
    parseRecord(std::string_view line, std::string *error);

  private:
    std::string journalPath;
    std::FILE *file = nullptr;
    std::mutex mutex;
};

} // namespace h2::sim
