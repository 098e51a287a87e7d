// Causal tracing: happens-before spans over an execution.
//
// The paper's bounds are statements about *chains* of causally related
// events — a flood completes within D*(d2+2eps) because a send→deliver→act
// chain of that length exists, Simulation 1 hides up to 2eps inside a
// buffer hold, the MMT model hides up to ell between a tick and the step
// it enables. The point probes of probes.hpp observe each quantity in
// isolation; this module materializes the relation connecting them
// (runtime analysis of timed distributed traces in the sense of Yang et
// al., and the happens-before relation online monitors under partial
// synchrony are built on).
//
// Every executed action becomes a *span* (SpanId = its 0-based ordinal in
// the event stream). Happens-before edges are derived from
//   (a) per-process program order — process = the action's node, or a
//       pseudo-process per owner machine for node-less actions; and
//   (b) message causality via Message::uid (Section 3's uniqueness
//       assumption): SENDMSG → ESENDMSG → ERECVMSG → RECVMSG chains.
// Edges are classified into the three places the paper says time can
// hide — channel wait, Simulation-1 buffer hold, MMT tick/step wait — so
// a critical path through the DAG is also a latency attribution.
//
// Components:
//   MessageIndex      the uid → send/last-event index, the single source
//                     of truth for message matching (ChannelLatencyProbe
//                     shares it instead of keeping a private map);
//   CausalDag         compact in-memory DAG with vector-clock stamping,
//                     happens-before queries, critical-path extraction,
//                     and JSONL export;
//   CausalTraceProbe  builds the DAG from the probe stream and, given a
//                     ChromeTraceWriter, emits trace_event flow events
//                     (ph s/t/f) so Perfetto renders message arrows.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/msg_class.hpp"
#include "core/trace.hpp"
#include "obs/probe.hpp"

namespace psc {

class ChromeTraceWriter;
class ReceiveBuffer;

using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = 0xffffffffu;

// Why the target span could not have happened earlier than its source.
enum class EdgeKind : std::uint8_t {
  kProgram = 0,  // per-process program order
  kChannel,      // channel transit: send → the channel's delivery
  kBuffer,       // Simulation-1 buffer: send-buffer forward (0ns) or the
                 // receive buffer's ERECVMSG → RECVMSG hold
  kTick,         // MMT: the node could only act at its step/tick schedule
  kStart,        // virtual: run start → a root span (critical paths only)
};
inline constexpr std::size_t kNumEdgeKinds = 5;
const char* to_string(EdgeKind k);

struct CausalEdge {
  SpanId from = kNoSpan;
  EdgeKind kind = EdgeKind::kProgram;
  // kBuffer release edges reported by a watched ReceiveBuffer additionally
  // carry the *clock-time* hold and whether the message actually waited
  // (tag > clock at arrival — the eps > 0 signature); real-time duration
  // is always span(to).time - span(from).time.
  Duration clock_hold = 0;
  bool waited = false;
};

struct CausalSpan {
  std::uint32_t name_id = 0;  // interned action name (CausalDag::name)
  int node = kNoNode;
  int peer = kNoNode;
  int owner = -1;            // executing machine index
  Time time = 0;             // real time of the event
  Time clock = kNoClockTag;  // owner's clock reading, if clocked
  std::uint64_t uid = 0;     // message uid, 0 when the action carries none
  std::uint32_t proc = 0;    // dense process index (vector-clock slot)
};

struct CriticalStep {
  SpanId span = kNoSpan;
  EdgeKind via = EdgeKind::kStart;  // edge that binds `span` to the step
                                    // before it (kStart for the root)
  Duration dur = 0;                 // real time attributed to that edge
};

struct CriticalPath {
  std::vector<CriticalStep> steps;  // root first, sink last
  Duration total = 0;               // sum of durs == span(sink).time
  // Per-kind latency attribution: where the sink's completion time hides.
  std::array<Duration, kNumEdgeKinds> by_kind{};
};

// --- MessageIndex ---------------------------------------------------------

// uid → send/last-event index over the run's message actions. Exactly one
// feeder calls observe() per event (CausalTraceProbe when present, else
// the probe that owns the index), so send→deliver matching lives in one
// place; any number of consumers read it.
class MessageIndex {
 public:
  struct Record {
    Time send_time = -1;         // real time of the first SENDMSG/ESENDMSG
    SpanId send_span = kNoSpan;  // span of that send (kNoSpan if unnumbered)
    Time last_time = -1;         // latest event touching this uid
    SpanId last_span = kNoSpan;
    MsgClass last_stage = MsgClass::kOther;  // a message leg once touched
  };

  // Records `e` when it carries a message; `span` is the event's ordinal
  // (kNoSpan when the feeder does not number events).
  void observe(const TimedEvent& e, SpanId span);

  const Record* find(std::uint64_t uid) const;
  std::size_t size() const { return map_.size(); }
  void clear() { map_.clear(); }

 private:
  std::unordered_map<std::uint64_t, Record> map_;
};

// --- CausalDag ------------------------------------------------------------

class CausalDag {
 public:
  std::size_t size() const { return spans_.size(); }
  const CausalSpan& span(SpanId id) const { return spans_[id]; }
  const std::vector<CausalEdge>& preds(SpanId id) const { return preds_[id]; }
  const std::string& name(SpanId id) const {
    return names_[spans_[id].name_id];
  }
  std::size_t process_count() const { return procs_; }

  // Vector clock of a span: slot p counts the spans of process p in the
  // span's causal past (itself included). Missing slots read 0.
  const std::vector<std::uint32_t>& vector_clock(SpanId id) const {
    return vcs_[id];
  }
  // Strict happens-before (a != b and a in b's causal past).
  bool happens_before(SpanId a, SpanId b) const;
  bool concurrent(SpanId a, SpanId b) const {
    return a != b && !happens_before(a, b) && !happens_before(b, a);
  }

  // Last span whose action has this name, kNoSpan if none.
  SpanId find_last(std::string_view name) const;

  // Longest real-time path into `sink`: walk back through the binding
  // (latest-source) predecessor at each span, then charge the root's start
  // time to kStart. The durations telescope, so total == span(sink).time —
  // the path *explains* the sink's completion time, and by_kind says where
  // it hid (channel wait vs buffer hold vs tick wait vs local order).
  CriticalPath critical_path(SpanId sink) const;

  // One JSON object per span per line: identity, timing, vector clock,
  // predecessor edges with kinds and durations.
  void write_jsonl(std::ostream& os) const;

  // Canonical text form with message uids normalized by first appearance —
  // byte-comparable across runs (tests pin legacy-scan vs incremental
  // scheduler DAG equality with this).
  std::string to_text() const;

  // --- construction (driven by CausalTraceProbe) ---
  SpanId add_span(const TimedEvent& e);
  void add_edge(SpanId to, const CausalEdge& e);
  // Finalizes `to`'s vector clock from its recorded predecessors; must be
  // called once per span, after all its edges are added.
  void stamp(SpanId to);

 private:
  std::uint32_t intern_name(const std::string& n);
  std::uint32_t intern_proc(int node, int owner);

  std::vector<CausalSpan> spans_;
  std::vector<std::vector<CausalEdge>> preds_;
  std::vector<std::vector<std::uint32_t>> vcs_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_ids_;
  std::unordered_map<std::int64_t, std::uint32_t> proc_ids_;
  std::size_t procs_ = 0;
};

// --- CausalTraceProbe -----------------------------------------------------

class CausalTraceProbe final : public Probe {
 public:
  CausalTraceProbe() = default;

  // Flow-event emission (optional): message chains become ph s/t/f flow
  // events in the trace document, which Perfetto renders as arrows between
  // the per-machine instant events. Set before the run starts.
  void set_trace(ChromeTraceWriter* trace) { trace_ = trace; }

  // Installs a release hook on a Simulation-1 receive buffer so kBuffer
  // edges carry the clock-time hold and the waited flag. Non-owning; the
  // buffer must outlive the run.
  void watch(ReceiveBuffer* rb);

  const CausalDag& dag() const { return dag_; }
  const MessageIndex& index() const { return index_; }

  void on_event(const TimedEvent& e, const Machine& owner) override;

 private:
  struct Release {  // pending receive-buffer release info, keyed by uid
    Duration clock_hold = 0;
    bool waited = false;
  };

  CausalDag dag_;
  MessageIndex index_;
  ChromeTraceWriter* trace_ = nullptr;
  std::vector<SpanId> last_in_proc_;  // proc index → latest span
  std::unordered_map<std::uint64_t, Release> releases_;
};

}  // namespace psc
