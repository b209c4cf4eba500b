#include "obs/export.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace gh::obs {
namespace {

// --------------------------------------------------------------------------
// JSON writer helpers (no library dependency; output is ASCII).

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
}

/// Tiny JSON object/array builder: tracks comma placement.
class Json {
 public:
  explicit Json(std::string& out) : out_(out) {}

  Json& begin_obj() {
    comma();
    out_ += '{';
    fresh_ = true;
    return *this;
  }
  Json& end_obj() {
    out_ += '}';
    fresh_ = false;
    return *this;
  }
  Json& begin_arr() {
    comma();
    out_ += '[';
    fresh_ = true;
    return *this;
  }
  Json& end_arr() {
    out_ += ']';
    fresh_ = false;
    return *this;
  }
  Json& key(std::string_view k) {
    comma();
    append_escaped(out_, k);
    out_ += ':';
    fresh_ = true;
    return *this;
  }
  Json& value(u64 v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(double v) {
    comma();
    append_double(out_, v);
    return *this;
  }
  Json& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& value(std::string_view v) {
    comma();
    append_escaped(out_, v);
    return *this;
  }
  Json& field(std::string_view k, u64 v) { return key(k).value(v); }
  Json& field(std::string_view k, double v) { return key(k).value(v); }
  Json& field(std::string_view k, bool v) { return key(k).value(v); }
  Json& field(std::string_view k, std::string_view v) { return key(k).value(v); }
  // Without this, a string literal converts to bool (standard conversion)
  // before string_view (user-defined) and serializes as true/false.
  Json& field(std::string_view k, const char* v) {
    return key(k).value(std::string_view(v));
  }

 private:
  void comma() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }

  std::string& out_;
  bool fresh_ = true;
};

void write_histogram(Json& j, std::string_view name, const HistogramSnapshot& h) {
  j.key(name).begin_obj();
  j.field("count", h.count)
      .field("sum_ns", h.sum_ns)
      .field("max_ns", h.max_ns)
      .field("mean_ns", h.mean_ns)
      .field("p50_ns", h.p50_ns)
      .field("p95_ns", h.p95_ns)
      .field("p99_ns", h.p99_ns)
      .field("p999_ns", h.p999_ns);
  // Sparse (bucket index, count) pairs; validate_json cross-checks their
  // sum against "count" so a truncated/mutated export fails validation.
  j.key("buckets").begin_arr();
  for (const auto& [bucket, count] : h.buckets) {
    j.begin_arr().value(u64{bucket}).value(count).end_arr();
  }
  j.end_arr();
  j.end_obj();
}

void write_latency(Json& j, const OpLatencySnapshot& lat) {
  j.key("latency").begin_obj();
  write_histogram(j, "insert", lat.insert);
  write_histogram(j, "find", lat.find);
  write_histogram(j, "erase", lat.erase);
  write_histogram(j, "expand", lat.expand);
  write_histogram(j, "scrub", lat.scrub);
  write_histogram(j, "recover", lat.recover);
  write_histogram(j, "compact", lat.compact);
  write_histogram(j, "migrate", lat.migrate);
  j.end_obj();
}

// --------------------------------------------------------------------------
// Prometheus helpers.

/// Escape a label value per the exposition format: backslash, double
/// quote and newline must be escaped inside the quoted value or a
/// hostile source string (e.g. a map path) breaks the line structure.
std::string prom_label_value(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void prom_help(std::string& out, std::string_view prefix, std::string_view name,
               std::string_view help) {
  out += "# HELP ";
  out += prefix;
  out += name;
  out += ' ';
  out += help;
  out += '\n';
}

void prom_line(std::string& out, std::string_view prefix, std::string_view name,
               std::string_view labels, double v) {
  out += prefix;
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
  out += '\n';
}

void prom_counter(std::string& out, std::string_view prefix, std::string_view name,
                  std::string_view labels, u64 v,
                  std::string_view help = "gh observability counter") {
  prom_help(out, prefix, name, help);
  out += "# TYPE ";
  out += prefix;
  out += name;
  out += " counter\n";
  prom_line(out, prefix, name, labels, static_cast<double>(v));
}

void prom_histogram(std::string& out, std::string_view prefix, std::string_view base,
                    std::string_view labels, const HistogramSnapshot& h,
                    std::string_view help = "per-operation latency summary (ns)") {
  prom_help(out, prefix, base, help);
  out += "# TYPE ";
  out += prefix;
  out += base;
  out += " summary\n";
  const std::string lp(labels);
  const auto with_q = [&](const char* q) {
    return lp.empty() ? std::string("quantile=\"") + q + "\""
                      : lp + ",quantile=\"" + q + "\"";
  };
  prom_line(out, prefix, base, with_q("0.5"), h.p50_ns);
  prom_line(out, prefix, base, with_q("0.95"), h.p95_ns);
  prom_line(out, prefix, base, with_q("0.99"), h.p99_ns);
  prom_line(out, prefix, base, with_q("0.999"), h.p999_ns);
  prom_line(out, prefix, std::string(base) + "_count", lp, static_cast<double>(h.count));
  prom_line(out, prefix, std::string(base) + "_sum", lp, static_cast<double>(h.sum_ns));
  prom_line(out, prefix, std::string(base) + "_max", lp, static_cast<double>(h.max_ns));
}

std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_') ? c : '_';
  }
  return out;
}

}  // namespace

std::string export_json(const Snapshot& s) {
  std::string out;
  out.reserve(2048);
  Json j(out);
  j.begin_obj();
  j.field("schema", kSnapshotSchema)
      .field("version", u64{s.version})
      .field("source", s.source)
      .field("size", s.size)
      .field("capacity", s.capacity)
      .field("load_factor", s.load_factor)
      .field("shards", u64{s.shards});
  j.key("persist").begin_obj();
  j.field("stores", s.persist.stores)
      .field("bytes_written", s.persist.bytes_written)
      .field("atomic_stores", s.persist.atomic_stores)
      .field("persist_calls", s.persist.persist_calls)
      .field("lines_flushed", s.persist.lines_flushed)
      .field("fences", s.persist.fences)
      .field("delay_ns", s.persist.delay_ns);
  j.end_obj();
  j.key("ops").begin_obj();
  j.field("inserts", s.table.inserts)
      .field("insert_failures", s.table.insert_failures)
      .field("queries", s.table.queries)
      .field("query_hits", s.table.query_hits)
      .field("erases", s.table.erases)
      .field("erase_hits", s.table.erase_hits)
      .field("probes", s.table.probes)
      .field("level2_probes", s.table.level2_probes)
      .field("displacements", s.table.displacements)
      .field("stash_probes", s.table.stash_probes)
      .field("backward_shifts", s.table.backward_shifts)
      .field("tag_probes", s.table.tag_probes)
      .field("tag_skips", s.table.tag_skips)
      .field("tag_false_positives", s.table.tag_false_positives)
      .field("batch_ops", s.table.batch_ops)
      .field("batch_keys", s.table.batch_keys)
      .field("prefetches_issued", s.table.prefetches_issued);
  j.end_obj();
  j.key("scrub").begin_obj();
  j.field("groups_scrubbed", s.scrub.groups_scrubbed)
      .field("cells_scrubbed", s.scrub.cells_scrubbed)
      .field("crc_mismatches", s.scrub.crc_mismatches)
      .field("groups_quarantined", s.scrub.groups_quarantined)
      .field("cells_lost", s.scrub.cells_lost)
      .field("media_errors", s.scrub.media_errors)
      .field("open_groups_checked", s.scrub.open_groups_checked)
      .field("open_crc_mismatches", s.scrub.open_crc_mismatches)
      .field("open_cells_lost", s.scrub.open_cells_lost);
  j.end_obj();
  j.key("contention").begin_obj();
  j.field("read_retries", s.contention.read_retries)
      .field("read_fallbacks", s.contention.read_fallbacks)
      .field("writer_waits", s.contention.writer_waits);
  j.end_obj();
  j.key("lifecycle").begin_obj();
  j.field("expansions", s.lifecycle.expansions)
      .field("expand_failures", s.lifecycle.expand_failures)
      .field("compactions", s.lifecycle.compactions)
      .field("compact_failures", s.lifecycle.compact_failures)
      .field("recoveries", s.lifecycle.recoveries)
      .field("orphans_reclaimed", s.lifecycle.orphans_reclaimed)
      .field("degraded", s.lifecycle.degraded)
      .field("expand_backoff", s.lifecycle.expand_backoff)
      .field("expand_cooldown", s.lifecycle.expand_cooldown);
  j.end_obj();
  j.key("migration").begin_obj();
  j.field("active", s.migration.active)
      .field("cursor", s.migration.cursor)
      .field("total_groups", s.migration.total_groups)
      .field("groups_migrated", s.migration.groups_migrated)
      .field("keys_migrated", s.migration.keys_migrated)
      .field("started", s.migration.started)
      .field("completed", s.migration.completed)
      .field("resumed", s.migration.resumed)
      .field("emergency_expands", s.migration.emergency_expands)
      .field("help_steps", s.migration.help_steps)
      .field("bg_steps", s.migration.bg_steps);
  j.end_obj();
  j.key("handoff").begin_obj();
  j.field("round_trips", s.handoff.round_trips)
      .field("worker_parks", s.handoff.worker_parks)
      .field("doorbell_wakes", s.handoff.doorbell_wakes)
      .field("client_parks", s.handoff.client_parks);
  j.end_obj();
  write_latency(j, s.latency);
  // Per-phase attribution: one object per OpKind that saw samples.
  j.key("phases").begin_obj();
  for (usize k = 0; k < kOpKinds; ++k) {
    const PhaseSnapshot::Row& r = s.phases.rows[k];
    if (r.samples == 0 && r.op_ns == 0) continue;
    j.key(op_kind_name(static_cast<OpKind>(k))).begin_obj();
    j.field("samples", r.samples).field("op_ns", r.op_ns);
    for (usize p = 0; p < kPhases; ++p) {
      j.field(std::string(phase_name(static_cast<Phase>(p))) + "_ns", r.phase_ns[p]);
    }
    j.end_obj();
  }
  j.end_obj();
  j.key("timeseries").begin_obj();
  j.field("windows", s.timeseries.windows)
      .field("interval_ms", s.timeseries.interval_ms)
      .field("last_window_ms", s.timeseries.last_window_ms)
      .field("last_qps", s.timeseries.last_qps)
      .field("last_p99_ns", s.timeseries.last_p99_ns);
  j.end_obj();
  j.key("flight").begin_obj();
  j.field("enabled", s.flight.enabled)
      .field("records_scanned", s.flight.records_scanned)
      .field("records_torn", s.flight.records_torn);
  j.key("in_flight").begin_arr();
  for (const FlightOpBrief& op : s.flight.in_flight_on_open) {
    j.begin_obj();
    j.field("kind", op_kind_name(op.kind))
        .field("phase", flight_phase_name(op.phase))
        .field("seqno", op.seqno)
        .field("key_hash", op.key_hash);
    j.end_obj();
  }
  j.end_arr();
  j.end_obj();
  j.key("per_shard").begin_arr();
  for (const ShardBrief& sh : s.per_shard) {
    j.begin_obj();
    j.field("shard", u64{sh.shard})
        .field("size", sh.size)
        .field("capacity", sh.capacity)
        .field("read_retries", sh.contention.read_retries)
        .field("read_fallbacks", sh.contention.read_fallbacks)
        .field("writer_waits", sh.contention.writer_waits)
        .field("expansions", sh.expansions)
        .field("degraded", sh.degraded);
    j.end_obj();
  }
  j.end_arr();
  j.end_obj();
  return out;
}

std::string export_json(const MetricsRegistry::RegistrySnapshot& r) {
  std::string out;
  out.reserve(1024);
  Json j(out);
  j.begin_obj();
  j.field("schema", kMetricsSchema).field("version", u64{r.version});
  j.key("counters").begin_obj();
  for (const auto& c : r.counters) j.field(c.name, c.value);
  j.end_obj();
  j.key("histograms").begin_obj();
  for (const auto& h : r.histograms) write_histogram(j, h.name, h.hist);
  j.end_obj();
  j.key("recorders").begin_arr();
  for (const auto& rec : r.recorders) {
    j.begin_obj();
    j.field("name", rec.name);
    j.key("ops").begin_obj();
    for (usize k = 0; k < kOpKinds; ++k) {
      write_histogram(j, op_kind_name(static_cast<OpKind>(k)), rec.ops[k]);
    }
    j.end_obj();
    j.end_obj();
  }
  j.end_arr();
  j.end_obj();
  return out;
}

std::string export_registry_json() {
  return export_json(MetricsRegistry::global().collect());
}

std::string export_prometheus(const Snapshot& s, std::string_view prefix) {
  std::string out;
  out.reserve(2048);
  std::string labels = "source=\"" + prom_label_value(s.source) + "\"";
  prom_counter(out, prefix, "size", labels, s.size, "live keys in the table");
  prom_counter(out, prefix, "capacity", labels, s.capacity, "total cell capacity");
  prom_counter(out, prefix, "inserts_total", labels, s.table.inserts,
               "insert operations attempted");
  prom_counter(out, prefix, "insert_failures_total", labels, s.table.insert_failures,
               "inserts that found no free cell");
  prom_counter(out, prefix, "queries_total", labels, s.table.queries,
               "find operations attempted");
  prom_counter(out, prefix, "erases_total", labels, s.table.erases,
               "erase operations attempted");
  prom_counter(out, prefix, "probes_total", labels, s.table.probes,
               "cells examined across all operations");
  prom_counter(out, prefix, "tag_probes_total", labels, s.table.tag_probes,
               "tag-matched cells whose full key was compared");
  prom_counter(out, prefix, "tag_skips_total", labels, s.table.tag_skips,
               "cells skipped by the fingerprint-tag filter");
  prom_counter(out, prefix, "tag_false_positives_total", labels, s.table.tag_false_positives,
               "tag matches whose key compare missed");
  prom_counter(out, prefix, "batch_ops_total", labels, s.table.batch_ops,
               "batched multi-op calls");
  prom_counter(out, prefix, "batch_keys_total", labels, s.table.batch_keys,
               "keys submitted through batched multi-op calls");
  prom_counter(out, prefix, "prefetches_issued_total", labels, s.table.prefetches_issued,
               "software prefetches issued by batched lookups");
  prom_counter(out, prefix, "persist_calls_total", labels, s.persist.persist_calls,
               "persist() calls issued to the PM policy");
  prom_counter(out, prefix, "lines_flushed_total", labels, s.persist.lines_flushed,
               "cache lines flushed to NVM");
  prom_counter(out, prefix, "fences_total", labels, s.persist.fences,
               "store fences issued");
  prom_counter(out, prefix, "bytes_written_total", labels, s.persist.bytes_written,
               "bytes written through the PM policy");
  prom_counter(out, prefix, "scrub_groups_total", labels, s.scrub.groups_scrubbed,
               "group checksum verifications run");
  prom_counter(out, prefix, "crc_mismatches_total", labels, s.scrub.crc_mismatches,
               "group checksum failures detected");
  prom_counter(out, prefix, "cells_lost_total", labels, s.scrub.cells_lost,
               "occupied cells dropped as unrecoverable");
  prom_counter(out, prefix, "read_retries_total", labels, s.contention.read_retries,
               "optimistic read retries");
  prom_counter(out, prefix, "read_fallbacks_total", labels, s.contention.read_fallbacks,
               "optimistic reads that fell back to the lock");
  prom_counter(out, prefix, "writer_waits_total", labels, s.contention.writer_waits,
               "writer lock acquisitions that waited");
  prom_counter(out, prefix, "expansions_total", labels, s.lifecycle.expansions,
               "table expansions completed");
  prom_counter(out, prefix, "recoveries_total", labels, s.lifecycle.recoveries,
               "crash recovery passes run");
  prom_counter(out, prefix, "expand_cooldown", labels, s.lifecycle.expand_cooldown,
               "ops left before a pending expansion is retried (gauge)");
  prom_counter(out, prefix, "migration_active", labels, s.migration.active,
               "online-resize migrations currently in progress (gauge)");
  prom_counter(out, prefix, "migration_cursor", labels, s.migration.cursor,
               "next source group the active migration will move (gauge)");
  prom_counter(out, prefix, "migration_groups_total", labels, s.migration.groups_migrated,
               "source groups migrated by online resizes");
  prom_counter(out, prefix, "migration_keys_total", labels, s.migration.keys_migrated,
               "keys moved by online resizes");
  prom_counter(out, prefix, "migrations_started_total", labels, s.migration.started,
               "online-resize migrations started");
  prom_counter(out, prefix, "migrations_completed_total", labels, s.migration.completed,
               "online-resize migrations finalized");
  prom_counter(out, prefix, "migrations_resumed_total", labels, s.migration.resumed,
               "migrations resumed from a durable cursor on open");
  prom_counter(out, prefix, "handoff_round_trips_total", labels, s.handoff.round_trips,
               "service client batches completed");
  prom_counter(out, prefix, "handoff_worker_parks_total", labels, s.handoff.worker_parks,
               "shard-worker futex sleeps on an empty ring");
  prom_counter(out, prefix, "handoff_doorbell_wakes_total", labels, s.handoff.doorbell_wakes,
               "futex wakes issued to parked shard workers");
  prom_counter(out, prefix, "handoff_client_parks_total", labels, s.handoff.client_parks,
               "execute() calls that slept until their batch completed");
  prom_counter(out, prefix, "flight_in_flight_on_open_total", labels,
               s.flight.in_flight_on_open.size(),
               "ops the flight recorder showed in flight at the last crash");
  prom_counter(out, prefix, "flight_records_torn_total", labels, s.flight.records_torn,
               "torn flight records found on open (protocol violation)");
  for (usize k = 0; k < kOpKinds; ++k) {
    const auto kind = static_cast<OpKind>(k);
    prom_histogram(out, prefix,
                   std::string("op_") + op_kind_name(kind) + "_latency_ns", labels,
                   s.latency.of(kind));
  }
  bool phase_header_written = false;
  for (usize k = 0; k < kOpKinds; ++k) {
    const PhaseSnapshot::Row& r = s.phases.rows[k];
    if (r.samples == 0 && r.op_ns == 0) continue;
    if (!phase_header_written) {
      prom_help(out, prefix, "phase_ns_total",
                "attributed time per op kind and phase (sampled)");
      out += "# TYPE ";
      out += prefix;
      out += "phase_ns_total counter\n";
      phase_header_written = true;
    }
    const std::string op = op_kind_name(static_cast<OpKind>(k));
    for (usize p = 0; p < kPhases; ++p) {
      const std::string phase_labels = labels + ",op=\"" + op + "\",phase=\"" +
                                       phase_name(static_cast<Phase>(p)) + "\"";
      prom_line(out, prefix, "phase_ns_total", phase_labels,
                static_cast<double>(r.phase_ns[p]));
    }
  }
  return out;
}

std::string export_prometheus(const MetricsRegistry::RegistrySnapshot& r,
                              std::string_view prefix) {
  std::string out;
  out.reserve(1024);
  for (const auto& c : r.counters) {
    // Registry counter names are already fully qualified (gh_…_total);
    // don't double-prefix those.
    std::string name = sanitize_metric_name(c.name);
    if (name.rfind(prefix, 0) == 0) name.erase(0, prefix.size());
    prom_counter(out, prefix, name, "", c.value);
  }
  for (const auto& h : r.histograms) {
    prom_histogram(out, prefix, sanitize_metric_name(h.name), "", h.hist);
  }
  for (const auto& rec : r.recorders) {
    const std::string labels = "source=\"" + prom_label_value(rec.name) + "\"";
    for (usize k = 0; k < kOpKinds; ++k) {
      prom_histogram(out, prefix,
                     std::string("op_") + op_kind_name(static_cast<OpKind>(k)) +
                         "_latency_ns",
                     labels, rec.ops[k]);
    }
  }
  return out;
}

// --------------------------------------------------------------------------
// Minimal JSON structural validator.

namespace {

/// Top-level keys a "gh.obs.snapshot.v1" document may carry. Additions
/// here must ship with the exporter change that writes them; anything
/// else is a mutated/forged document and fails validation.
constexpr std::string_view kSnapshotTopLevelKeys[] = {
    "schema",     "version",   "source",    "size",   "capacity",
    "load_factor", "shards",   "persist",   "ops",    "scrub",
    "contention", "lifecycle", "migration", "handoff", "latency", "phases",
    "timeseries", "flight",   "per_shard",
};

bool known_snapshot_key(std::string_view key) {
  for (const std::string_view k : kSnapshotTopLevelKeys) {
    if (k == key) return true;
  }
  return false;
}

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : s_(text) {}

  bool run(std::string* error) {
    skip_ws();
    const bool ok = value() && (skip_ws(), pos_ == s_.size());
    if (!ok && error != nullptr) {
      *error = err_.empty() ? "trailing characters at offset " + std::to_string(pos_)
                            : err_ + " at offset " + std::to_string(pos_);
    }
    return ok;
  }

 private:
  bool fail(const char* what) {
    if (err_.empty()) err_ = what;
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return fail("bad literal");
    pos_ += lit.size();
    last_ = Last::kOther;
    return true;
  }

  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return fail("expected string");
    const usize start = ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return fail("bad escape");
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return fail("unterminated string");
    // Raw (escapes unprocessed) — only compared against escape-free
    // schema constants and key names.
    last_string_ = s_.substr(start, pos_ - start);
    ++pos_;  // closing quote
    last_ = Last::kString;
    return true;
  }

  bool number() {
    const usize start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
                                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected number");
    last_number_ = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(), nullptr);
    last_ = Last::kNumber;
    return true;
  }

  bool value() {
    if (++depth_ > 64) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= s_.size()) return fail("unexpected end");
    bool ok = false;
    switch (s_[pos_]) {
      case '{': ok = object(); break;
      case '[': ok = array(); break;
      case '"': ok = string(); break;
      case 't': ok = literal("true"); break;
      case 'f': ok = literal("false"); break;
      case 'n': ok = literal("null"); break;
      default: ok = number();
    }
    --depth_;
    return ok;
  }

  /// Sum the count halves of a validated "buckets" value — an array of
  /// [bucket, count] pairs. Structure other than pairs-of-numbers fails.
  bool sum_buckets(std::string_view text, double* out) {
    JsonChecker inner(text);
    inner.skip_ws();
    if (inner.pos_ >= text.size() || text[inner.pos_] != '[') return false;
    ++inner.pos_;
    inner.skip_ws();
    double sum = 0;
    if (inner.pos_ < text.size() && text[inner.pos_] == ']') {
      *out = 0;
      return true;
    }
    for (;;) {
      inner.skip_ws();
      if (inner.pos_ >= text.size() || text[inner.pos_] != '[') return false;
      ++inner.pos_;
      inner.skip_ws();
      if (!inner.number()) return false;
      inner.skip_ws();
      if (inner.pos_ >= text.size() || text[inner.pos_] != ',') return false;
      ++inner.pos_;
      inner.skip_ws();
      if (!inner.number()) return false;
      sum += inner.last_number_;
      inner.skip_ws();
      if (inner.pos_ >= text.size() || text[inner.pos_] != ']') return false;
      ++inner.pos_;
      inner.skip_ws();
      if (inner.pos_ < text.size() && text[inner.pos_] == ',') {
        ++inner.pos_;
        continue;
      }
      break;
    }
    *out = sum;
    return true;
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    const bool top_level = depth_ == 1;
    bool has_count = false, has_buckets = false;
    double count = 0, bucket_sum = 0;
    bool buckets_well_formed = true;
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      const std::string key(last_string_);
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      const usize value_start = (skip_ws(), pos_);
      if (!value()) return false;
      if (top_level && key == "schema" && last_ == Last::kString) {
        schema_ = last_string_;
      }
      if (top_level && !known_snapshot_key(key)) top_level_unknown_ = true;
      if (key == "count" && last_ == Last::kNumber) {
        has_count = true;
        count = last_number_;
      } else if (key == "buckets") {
        has_buckets = true;
        buckets_well_formed =
            sum_buckets(s_.substr(value_start, pos_ - value_start), &bucket_sum);
      }
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        break;
      }
      return fail("expected ',' or '}'");
    }
    // A histogram object must be internally consistent: the sparse
    // buckets account for every sample "count" claims.
    if (has_count && has_buckets) {
      if (!buckets_well_formed) return fail("malformed histogram buckets");
      if (count != bucket_sum) return fail("histogram bucket counts do not sum to count");
    }
    // Only enforce the key whitelist for documents that claim to be
    // snapshots — foreign JSON still gets the plain structural check.
    if (top_level && schema_ == kSnapshotSchema && top_level_unknown_) {
      return fail("unknown top-level key in snapshot document");
    }
    last_ = Last::kOther;
    return true;
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      last_ = Last::kOther;
      return true;
    }
    for (;;) {
      if (!value()) return false;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        last_ = Last::kOther;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  enum class Last { kNone, kNumber, kString, kOther };

  std::string_view s_;
  usize pos_ = 0;
  int depth_ = 0;
  std::string err_;
  Last last_ = Last::kNone;
  double last_number_ = 0;
  std::string_view last_string_;
  std::string_view schema_;
  bool top_level_unknown_ = false;
};

}  // namespace

bool validate_json(std::string_view text, std::string* error) {
  return JsonChecker(text).run(error);
}

}  // namespace gh::obs
