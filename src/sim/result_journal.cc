#include "sim/result_journal.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/json.h"
#include "common/log.h"

namespace h2::sim {

ResultJournal::ResultJournal(const std::string &path)
    : journalPath(path)
{
    file = std::fopen(path.c_str(), "ab");
    if (!file)
        h2_fatal("cannot open result journal '", path,
                 "': ", std::strerror(errno));
}

ResultJournal::~ResultJournal()
{
    if (file)
        std::fclose(file);
}

std::string
ResultJournal::formatRecord(const std::string &key,
                            const RunOutcome &outcome)
{
    JsonWriter w(/*pretty=*/false);
    w.beginObject()
        .kv("key", key)
        .kv("ok", outcome.ok)
        .kv("wall_ms", outcome.wallMs)
        .kv("timed_out", outcome.timedOut);
    if (outcome.ok) {
        w.key("metrics");
        outcome.metrics.writeJson(w);
    } else {
        w.kv("error", outcome.error);
    }
    w.endObject();
    return w.str();
}

std::optional<std::pair<std::string, RunOutcome>>
ResultJournal::parseRecord(std::string_view line, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return std::nullopt;
    };

    std::string parseError;
    auto doc = parseJson(line, &parseError);
    if (!doc)
        return fail(parseError);
    if (!doc->isObject())
        return fail("record is not a JSON object");

    const JsonValue *key = doc->find("key");
    if (!key || !key->isString())
        return fail("record has no string 'key'");
    const JsonValue *ok = doc->find("ok");
    if (!ok || !ok->isBool())
        return fail("record has no boolean 'ok'");

    RunOutcome out;
    out.ok = ok->asBool();
    if (const JsonValue *f = doc->find("wall_ms"); f && f->isNumber())
        out.wallMs = f->asU64();
    if (const JsonValue *f = doc->find("timed_out"); f && f->isBool())
        out.timedOut = f->asBool();

    if (out.ok) {
        const JsonValue *metrics = doc->find("metrics");
        if (!metrics)
            return fail("ok record has no 'metrics'");
        std::string metricsError;
        auto m = Metrics::fromJson(*metrics, &metricsError);
        if (!m)
            return fail(metricsError);
        out.metrics = *std::move(m);
    } else {
        const JsonValue *err = doc->find("error");
        if (!err || !err->isString())
            return fail("failed record has no string 'error'");
        out.error = err->asString();
    }
    return std::make_pair(key->asString(), std::move(out));
}

void
ResultJournal::append(const std::string &key, const RunOutcome &outcome)
{
    std::string record = formatRecord(key, outcome);
    record += '\n';
    std::lock_guard<std::mutex> lock(mutex);
    if (std::fwrite(record.data(), 1, record.size(), file) !=
            record.size() ||
        std::fflush(file) != 0)
        h2_fatal("cannot append to result journal '", journalPath,
                 "': ", std::strerror(errno));
#ifndef _WIN32
    // The durability guarantee: the record is on stable storage before
    // the sweep proceeds, so kill -9 loses only in-flight points.
    fsync(fileno(file));
#endif
}

std::optional<std::map<std::string, RunOutcome>>
ResultJournal::load(const std::string &path, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        return std::map<std::string, RunOutcome>{}; // fresh resume

    std::map<std::string, RunOutcome> out;
    std::string line;
    u64 lineNo = 0;
    bool sawTornTail = false;
    while (std::getline(in, line)) {
        ++lineNo;
        // getline strips '\n'; a record that never got its newline is
        // the torn tail of a crashed writer.
        bool complete = !in.eof();
        if (line.empty())
            continue;
        std::string recordError;
        auto rec = parseRecord(line, &recordError);
        if (!rec) {
            if (!complete) {
                h2_warn("result journal '", path,
                        "': discarding torn final record (line ", lineNo,
                        "): ", recordError);
                sawTornTail = true;
                break;
            }
            if (error)
                *error = detail::concat(
                    "corrupt result journal '", path, "' line ", lineNo,
                    ": ", recordError);
            return std::nullopt;
        }
        out.insert_or_assign(std::move(rec->first),
                             std::move(rec->second));
    }
    if (!sawTornTail && in.bad()) {
        if (error)
            *error = detail::concat("error reading result journal '",
                                    path, "'");
        return std::nullopt;
    }
    return out;
}

} // namespace h2::sim
