/**
 * @file
 * Critical-path timeline of one memory request.
 *
 * Every HybridMemory::access builds one Timeline: the request's issue
 * tick plus an ordered chain of latency segments. Structural traffic
 * (victim evictions, swap-outs, migrations, metadata reads) either
 *
 *  - @b serializes: the step must finish before the request can make
 *    progress, so it extends the critical path (the next serialized
 *    step issues at now(), which chains completions), or
 *  - @b overlaps: the step's data is already latched in controller
 *    buffers (posted writes, trailing fills after the critical word),
 *    so it does not delay the requester and never touches the
 *    Timeline.
 *
 * The repo-wide convention (documented per design in README.md,
 * "Latency semantics") is: reads that source data or metadata the
 * request path depends on serialize; writes of already-buffered data
 * go through HybridMemory's posted-write buffer, which drains after
 * the request's serialized reads (demand traffic keeps bank priority).
 * Overlapped traffic still contends for channels and banks inside
 * DramDevice, so it delays *later* requests — it is charged at the
 * right time, just not on this request's path.
 */

#pragma once

#include "common/types.h"

namespace h2::mem {

class Timeline
{
  public:
    Timeline() = default;
    explicit Timeline(Tick issueTick) : issue(issueTick), head(issueTick) {}

    /** When the request entered the memory organization. */
    Tick issuedAt() const { return issue; }

    /** Critical-path frontier: where the next serialized step issues. */
    Tick now() const { return head; }

    /** When the critical 64 B block is available to the requester. */
    Tick completeAt() const { return head; }

    /** Total serialized latency accumulated so far. */
    Tick criticalPathPs() const { return head - issue; }

    /** Append a fixed on-chip latency segment (controller, XTA). */
    Tick
    advance(Tick ps)
    {
        head += ps;
        return head;
    }

    /**
     * Serialize a completed step onto the critical path: the request
     * cannot proceed before @p doneAt. Pass the completion tick of a
     * MemController::access issued at now().
     */
    Tick
    serialize(Tick doneAt)
    {
        if (doneAt > head)
            head = doneAt;
        return head;
    }

  private:
    Tick issue = 0;
    Tick head = 0; ///< critical-path frontier
};

} // namespace h2::mem
