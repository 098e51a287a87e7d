#include "obs/causal.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>

#include "core/action.hpp"
#include "core/machine.hpp"
#include "mmt/mmt_node.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "transform/buffers.hpp"
#include "util/check.hpp"

namespace psc {

const char* to_string(EdgeKind k) {
  switch (k) {
    case EdgeKind::kProgram: return "program";
    case EdgeKind::kChannel: return "channel";
    case EdgeKind::kBuffer: return "buffer";
    case EdgeKind::kTick: return "tick";
    case EdgeKind::kStart: return "start";
  }
  return "?";
}

// --- MessageIndex ---------------------------------------------------------

void MessageIndex::observe(const TimedEvent& e, SpanId span) {
  if (!e.action.msg.has_value()) return;
  const MsgClass stage = msg_class(e.action.name);
  if (!is_msg_leg(stage)) return;
  Record& rec = map_[e.action.msg->uid];
  if ((stage == MsgClass::kSend || stage == MsgClass::kESend) &&
      rec.send_time < 0) {
    // First send wins: in the clock model SENDMSG and ESENDMSG carry the
    // same uid at the same real time (the send buffer forwards urgently).
    rec.send_time = e.time;
    rec.send_span = span;
  }
  rec.last_time = e.time;
  rec.last_span = span;
  rec.last_stage = stage;
}

const MessageIndex::Record* MessageIndex::find(std::uint64_t uid) const {
  const auto it = map_.find(uid);
  return it == map_.end() ? nullptr : &it->second;
}

// --- CausalDag ------------------------------------------------------------

std::uint32_t CausalDag::intern_name(const std::string& n) {
  const auto [it, fresh] =
      name_ids_.emplace(n, static_cast<std::uint32_t>(names_.size()));
  if (fresh) names_.push_back(n);
  return it->second;
}

std::uint32_t CausalDag::intern_proc(int node, int owner) {
  // Process = the action's node; node-less actions get a pseudo-process
  // per owning machine (disjoint key space via the sign bit).
  const std::int64_t key =
      node >= 0 ? static_cast<std::int64_t>(node)
                : -1 - static_cast<std::int64_t>(owner);
  const auto [it, fresh] =
      proc_ids_.emplace(key, static_cast<std::uint32_t>(procs_));
  if (fresh) ++procs_;
  return it->second;
}

SpanId CausalDag::add_span(const TimedEvent& e) {
  const SpanId id = static_cast<SpanId>(spans_.size());
  CausalSpan s;
  s.name_id = intern_name(e.action.name);
  s.node = e.action.node;
  s.peer = e.action.peer;
  s.owner = e.owner;
  s.time = e.time;
  s.clock = e.clock;
  s.uid = e.action.msg.has_value() ? e.action.msg->uid : 0;
  s.proc = intern_proc(e.action.node, e.owner);
  spans_.push_back(s);
  preds_.emplace_back();
  vcs_.emplace_back();
  return id;
}

void CausalDag::add_edge(SpanId to, const CausalEdge& e) {
  PSC_CHECK(e.from < to, "causal edge must point backward: " << e.from
                                                             << " -> " << to);
  preds_[to].push_back(e);
}

void CausalDag::stamp(SpanId to) {
  std::vector<std::uint32_t>& vc = vcs_[to];
  const std::uint32_t self = spans_[to].proc;
  vc.assign(static_cast<std::size_t>(self) + 1, 0);
  for (const CausalEdge& e : preds_[to]) {
    const std::vector<std::uint32_t>& pv = vcs_[e.from];
    if (pv.size() > vc.size()) vc.resize(pv.size(), 0);
    for (std::size_t p = 0; p < pv.size(); ++p) {
      vc[p] = std::max(vc[p], pv[p]);
    }
  }
  ++vc[self];
}

bool CausalDag::happens_before(SpanId a, SpanId b) const {
  if (a == b) return false;
  // a → b iff b's causal past contains at least as many process(a) spans
  // as a's own count — the standard component test. Same-process spans are
  // chained by program edges, so a process's causal past is prefix-closed
  // and distinct same-process spans never tie.
  const std::uint32_t p = spans_[a].proc;
  const std::vector<std::uint32_t>& va = vcs_[a];
  const std::vector<std::uint32_t>& vb = vcs_[b];
  const std::uint32_t in_a = p < va.size() ? va[p] : 0;
  const std::uint32_t in_b = p < vb.size() ? vb[p] : 0;
  return in_a <= in_b;
}

SpanId CausalDag::find_last(std::string_view name) const {
  for (std::size_t i = spans_.size(); i-- > 0;) {
    if (names_[spans_[i].name_id] == name) return static_cast<SpanId>(i);
  }
  return kNoSpan;
}

CriticalPath CausalDag::critical_path(SpanId sink) const {
  PSC_CHECK(sink < spans_.size(), "critical_path: no such span " << sink);
  CriticalPath out;
  SpanId cur = sink;
  while (true) {
    const std::vector<CausalEdge>& in = preds_[cur];
    if (in.empty()) break;
    // The binding predecessor is the last-arriving one — the dependency
    // that actually delayed `cur`. Ties prefer non-program edges (the more
    // informative cause), then the lowest span id, so the walk is
    // deterministic.
    const CausalEdge* best = &in.front();
    for (const CausalEdge& e : in) {
      const Time te = spans_[e.from].time;
      const Time tb = spans_[best->from].time;
      if (te > tb ||
          (te == tb && best->kind == EdgeKind::kProgram &&
           e.kind != EdgeKind::kProgram) ||
          (te == tb && (e.kind == EdgeKind::kProgram) ==
                           (best->kind == EdgeKind::kProgram) &&
           e.from < best->from)) {
        best = &e;
      }
    }
    const Duration dur = spans_[cur].time - spans_[best->from].time;
    out.steps.push_back({cur, best->kind, dur});
    out.by_kind[static_cast<std::size_t>(best->kind)] += dur;
    cur = best->from;
  }
  // Root: charge its absolute time to the virtual run-start edge, so the
  // path total telescopes to exactly span(sink).time.
  out.steps.push_back({cur, EdgeKind::kStart, spans_[cur].time});
  out.by_kind[static_cast<std::size_t>(EdgeKind::kStart)] += spans_[cur].time;
  std::reverse(out.steps.begin(), out.steps.end());
  out.total = spans_[sink].time;
  return out;
}

namespace {

void write_span_json(std::ostream& os, const CausalDag& dag, SpanId i,
                     std::uint64_t uid) {
  const CausalSpan& s = dag.span(i);
  os << "{\"span\":" << i << ",\"name\":\"" << json_escape(dag.name(i))
     << "\"";
  if (s.node != kNoNode) os << ",\"node\":" << s.node;
  if (s.peer != kNoNode) os << ",\"peer\":" << s.peer;
  os << ",\"owner\":" << s.owner << ",\"t_ns\":" << s.time;
  if (s.clock != kNoClockTag) os << ",\"clock_ns\":" << s.clock;
  if (uid != 0) os << ",\"uid\":" << uid;
  os << ",\"proc\":" << s.proc << ",\"vc\":[";
  const std::vector<std::uint32_t>& vc = dag.vector_clock(i);
  for (std::size_t p = 0; p < vc.size(); ++p) {
    os << (p ? "," : "") << vc[p];
  }
  os << "],\"preds\":[";
  const std::vector<CausalEdge>& in = dag.preds(i);
  for (std::size_t k = 0; k < in.size(); ++k) {
    const CausalEdge& e = in[k];
    os << (k ? "," : "") << "{\"span\":" << e.from << ",\"kind\":\""
       << to_string(e.kind) << "\",\"dur_ns\":"
       << (dag.span(i).time - dag.span(e.from).time);
    if (e.kind == EdgeKind::kBuffer) {
      os << ",\"clock_hold_ns\":" << e.clock_hold
         << ",\"waited\":" << (e.waited ? "true" : "false");
    }
    os << "}";
  }
  os << "]}";
}

}  // namespace

void CausalDag::write_jsonl(std::ostream& os) const {
  for (SpanId i = 0; i < spans_.size(); ++i) {
    write_span_json(os, *this, i, spans_[i].uid);
    os << "\n";
  }
}

std::string CausalDag::to_text() const {
  std::ostringstream os;
  std::map<std::uint64_t, std::uint64_t> remap;  // uid → first-appearance id
  for (SpanId i = 0; i < spans_.size(); ++i) {
    std::uint64_t uid = spans_[i].uid;
    if (uid != 0) {
      uid = remap.emplace(uid, remap.size() + 1).first->second;
    }
    write_span_json(os, *this, i, uid);
    os << "\n";
  }
  return os.str();
}

// --- CausalTraceProbe -----------------------------------------------------

void CausalTraceProbe::watch(ReceiveBuffer* rb) {
  PSC_CHECK(rb != nullptr, "null receive buffer");
  rb->set_release_hook([this](const Message& m, Time arrived_clock,
                              Time released_clock) {
    // Stashed until the matching RECVMSG event reaches on_event (the
    // executor applies effects before notifying probes).
    releases_[m.uid] = Release{released_clock - arrived_clock,
                               m.clock_tag > arrived_clock};
  });
}

void CausalTraceProbe::on_event(const TimedEvent& e, const Machine& owner) {
  const SpanId id = dag_.add_span(e);
  const std::uint32_t proc = dag_.span(id).proc;

  // (a) program order within the process. MMT nodes act only on their
  // [0, ell] step schedule (fed by TICKs), so the wait their outputs spent
  // in the pending queue is tick/step time, not algorithm time.
  if (proc >= last_in_proc_.size()) last_in_proc_.resize(proc + 1, kNoSpan);
  const MsgClass stage = msg_class(e.action.name);
  if (last_in_proc_[proc] != kNoSpan) {
    CausalEdge pe;
    pe.from = last_in_proc_[proc];
    pe.kind = (stage != MsgClass::kTick &&
               dynamic_cast<const MmtNode*>(&owner) != nullptr)
                  ? EdgeKind::kTick
                  : EdgeKind::kProgram;
    dag_.add_edge(id, pe);
  }
  last_in_proc_[proc] = id;

  // (b) message causality: link from the uid's previous stage. The stage
  // pair names where the elapsed time hid — channel transit or a
  // Simulation-1 buffer.
  bool flow_emitted = false;
  if (e.action.msg.has_value()) {
    const MessageIndex::Record* rec =
        is_msg_leg(stage) ? index_.find(e.action.msg->uid) : nullptr;
    if (rec != nullptr && rec->last_span != kNoSpan &&
        rec->last_span != id) {
      CausalEdge me;
      me.from = rec->last_span;
      if (stage == MsgClass::kESend) {
        me.kind = EdgeKind::kBuffer;  // send-buffer forward (urgent, 0ns)
      } else if (stage == MsgClass::kRecv &&
                 rec->last_stage == MsgClass::kERecv) {
        me.kind = EdgeKind::kBuffer;  // Sim1 receive-buffer hold
        const auto rit = releases_.find(e.action.msg->uid);
        if (rit != releases_.end()) {
          me.clock_hold = rit->second.clock_hold;
          me.waited = rit->second.waited;
          releases_.erase(rit);
        }
      } else {
        me.kind = EdgeKind::kChannel;
      }
      dag_.add_edge(id, me);
      if (trace_ != nullptr) {
        // RECVMSG terminates a chain (buffers strip the clock tag and the
        // algorithm consumes m); everything in between is a step.
        if (stage == MsgClass::kRecv) {
          trace_->flow_end(e.action.msg->kind, e.action.msg->uid, e.time,
                           e.owner);
        } else {
          trace_->flow_step(e.action.msg->kind, e.action.msg->uid, e.time,
                            e.owner);
        }
        flow_emitted = true;
      }
    }
    if (trace_ != nullptr && !flow_emitted &&
        (stage == MsgClass::kSend || stage == MsgClass::kESend)) {
      trace_->flow_start(e.action.msg->kind, e.action.msg->uid, e.time,
                         e.owner);
    }
    index_.observe(e, id);
  }

  dag_.stamp(id);
}

}  // namespace psc
