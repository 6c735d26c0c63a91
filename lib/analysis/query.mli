(** Typed trace queries over encoded journal bytes.

    One streaming pass over the journal ({!Journal.fold}), with
    predicate pushdown into the sidecar block index when one is
    available: a block is only decoded when its summary (vtime range,
    rid range, endpoint/kind/tag presence bitmaps) says the filter
    {e could} match inside it. Pushdown is conservative — it may decode
    a block that yields no matches, never the reverse — so indexed and
    full-scan evaluation produce byte-identical artifacts (a bench
    gate in [bench/query_bench.ml]).

    The [osiris query] subcommand is a thin wrapper: it parses the
    compact expression grammar with {!parse_filter}, loads the sidecar
    if present, and prints {!render}/{!to_json}/{!to_csv}. *)

type field = F_bytes | F_cycles | F_latency
(** Value extracted per matched event for {!Percentiles}:
    - [F_bytes]: undo-log bytes ([E_store_logged]/[E_rollback_end]);
    - [F_cycles]: checkpoint cost ([E_checkpoint]);
    - [F_latency]: call->reply turnaround, paired by rid {e among the
      matched events} — filter by server to get that compartment's
      service-time distribution. *)

type dim = D_server | D_kind | D_tag | D_policy

type agg =
  | Count                 (** Just the matched-record count. *)
  | Rate of int           (** Matches per vtime bucket of given width. *)
  | Percentiles of field  (** Log-bucketed {!Histogram} percentiles. *)
  | Group_by of dim       (** Match counts keyed by dimension value. *)

type pred =
  | True
  | All of pred list
  | Any of pred list
  | Not of pred
  | Server of Endpoint.t list  (** {!Journal.event_ep} is one of. *)
  | Kind of int list           (** {!Journal.event_kind} is one of. *)
  | Tag of Message.Tag.t list  (** Msg/reply tag is one of. *)
  | Rid of int list
  | Chain of int
      (** Event's causal rid chain passes through the given rid — the
          event is the request itself or a descendant of it. *)
  | Policy of string list      (** Crash/restart policy is one of. *)
  | Time_ge of int
  | Time_lt of int

val pred_to_string : pred -> string
(** Canonical rendering, parseable back by {!parse_filter} for every
    predicate the parser can produce. *)

val parse_filter : string -> (pred, string) result
(** Compact expression grammar: whitespace-separated terms are AND-ed;
    each term is [key=v1,v2,...] (values OR-ed) over keys [server]
    (names or numeric endpoints), [kind], [tag], [rid], [chain]
    (single rid), [policy], or a vtime bound [time>=N], [time<N],
    [time<=N], [time>N], [time=N]. A leading [!] negates a term.
    Empty input means [True]. Example:
    ["server=vfs kind=reply time>=5000 time<9000"]. *)

val eval : int Osiris_util.Inttbl.t -> pred -> Kernel.event -> bool
(** [eval parents p ev]: does [ev] satisfy [p]? [parents] is the
    rid -> parent map accrued so far (only consulted by [Chain]). *)

val field_of_name : string -> field option
val dim_of_name : string -> dim option

type pstats = {
  ps_count : int;
  ps_sum : int;
  ps_p50 : int;
  ps_p95 : int;
  ps_p99 : int;
  ps_max : int;
}

type agg_result =
  | R_count
  | R_rate of (int * int) list        (** (bucket start, count), sorted. *)
  | R_percentiles of pstats
  | R_groups of (string * int) list   (** Sorted by key. *)

type outcome = {
  q_header : Journal.header;
  q_filter : pred;
  q_agg : agg;
  q_matched : int;
  q_result : agg_result;
}

val run :
  ?index:Journal.index ->
  ?stats:Journal.scan_stats ->
  filter:pred ->
  agg:agg ->
  string ->
  (outcome, string) result
(** Evaluate over encoded journal bytes in one streaming pass.
    Without [index], every block is decoded (full scan); with it, the
    index summaries prune every block no record of which can match
    (conservatively; a block whose rid range reaches a [chain] target
    is always decoded, since chain walks read its parent bindings).
    [stats] accrues blocks scanned/skipped and records decoded.
    [Error] on undecodable bytes. *)

val render : outcome -> Journal.scan_stats option -> string
(** Human-readable result; scan statistics appended when given. *)

val to_json : outcome -> string
val to_csv : outcome -> string
(** Deterministic artifacts. Scan statistics are deliberately {e not}
    included: indexed and full-scan runs of the same query must be
    byte-identical. *)
