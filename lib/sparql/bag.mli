(** Bags (multisets) of mappings, with the four operators of Section 3:
    join ⋈, bag union ∪_bag, difference ∖ (anti-join on compatibility) and
    left outer join ⟕. All operators preserve duplicates (bag semantics).

    Every bag in a query shares the same width (the query's {!Vartable}
    size); a row may leave any column unbound, so UNION branches and
    OPTIONAL extensions with different domains coexist. *)

type t

(** {1 Resource accounting}

    Every row production (a {!push} into a bag, or an {!emitter} call for
    a row fed into a sink) is charged against the ambient {!Governor}
    ticket: the ticket's row budget is the analogue of the paper's memory
    limit (base runs out of memory on 13 of 24 queries; the bench harness
    must observe that as a recoverable condition, not an actual OOM), and
    its deadline and cancellation flag are checked on a per-bag stride so
    the checks still trigger deterministically when parallel workers push
    into worker-local bags. A bag captures the ticket ambient at {!create}
    time; exhaustion raises [Governor.Kill]. With no ticket installed,
    accounting runs against the calling domain's unlimited default. *)

(** {1 Construction} *)

(** [create ~width] — an empty bag. *)
val create : width:int -> t

(** [unit ~width] holds exactly one all-unbound mapping — the value of the
    empty group pattern and the join identity. *)
val unit : width:int -> t

val push : t -> Binding.t -> unit

val of_rows : width:int -> Binding.t list -> t

(** {1 Access} *)

val width : t -> int
val length : t -> int
val is_empty : t -> bool
val get : t -> int -> Binding.t
val iter : t -> f:(Binding.t -> unit) -> unit
val fold : t -> init:'a -> f:('a -> Binding.t -> 'a) -> 'a
val to_list : t -> Binding.t list

(** [bound_columns bag] is the sorted list of columns bound in at least one
    row — the bag's (possible) domain, used to find join keys. *)
val bound_columns : t -> int list

(** [universal_columns bag] is the sorted list of columns bound in *every*
    row — the only columns whose value sets may soundly serve as candidate
    results (a row leaving the column unbound is compatible with any
    value). Empty for the empty bag. *)
val universal_columns : t -> int list

(** [distinct_values bag ~col] is the set of distinct bound values in
    [col], as a hashtable used for candidate pruning. *)
val distinct_values : t -> col:int -> (int, unit) Hashtbl.t

(** {1 The Section 3 operators} *)

(** [join b1 b2] — Ω1 ⋈ Ω2. *)
val join : t -> t -> t

(** [union b1 b2] — Ω1 ∪_bag Ω2. *)
val union : t -> t -> t

(** [minus b1 b2] — Ω1 ∖ Ω2 = mappings of Ω1 compatible with no mapping of
    Ω2. *)
val minus : t -> t -> t

(** [semijoin b1 b2] — Ω1 ⋉ Ω2: mappings of Ω1 compatible with at least
    one mapping of Ω2 (the pruning primitive of LBR's two-pass scans). *)
val semijoin : t -> t -> t

(** [sparql_minus b1 b2] — SPARQL 1.1 MINUS: μ1 survives unless some μ2 is
    compatible *and* shares at least one bound variable with it
    (disjoint-domain mappings never exclude). *)
val sparql_minus : t -> t -> t

(** [sort bag ~keys ~compare_ids] — stable sort by [(column, descending)]
    keys; unbound precedes every bound value; bound values compare via
    [compare_ids] (typically term order through the dictionary). *)
val sort : t -> keys:(int * bool) list -> compare_ids:(int -> int -> int) -> t

(** [left_outer_join b1 b2] — Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪_bag (Ω1 ∖ Ω2). *)
val left_outer_join : t -> t -> t

(** {1 Other operations} *)

val filter : t -> f:(Binding.t -> bool) -> t

(** [project bag ~cols] keeps only [cols]; other columns become unbound. *)
val project : t -> cols:int list -> t

(** [dedup bag] removes duplicate rows (for SELECT DISTINCT). *)
val dedup : t -> t

(** [equal_as_bags b1 b2] — multiset equality, used as the correctness
    criterion in tests. *)
val equal_as_bags : t -> t -> bool

(** {1 Sink-driven operator variants}

    The operators the evaluator runs: instead of returning a materialized
    bag, output rows flow into a {!Sink.t} (and are charged exactly once,
    at the producing operator boundary). [Sink.Stop] raised by the sink
    aborts the probe loop, so a downstream LIMIT early-terminates the
    pipeline. With a [runner] and a probe side of at least 512 rows, the
    probe side is morselized across domains and each worker emits into
    its own shard of the sink; a [Stop] in any worker stops the others at
    their next morsel boundary. The materializing operators above stay
    serial: they are the reference the oracle and LBR are built from. *)

(** A parallel fan-out over [0..n-1]: [body shard i] for every index,
    where [shard] is the calling domain's private shard of [sink]
    (degrading to a serial loop over [sink] when it cannot fork). A
    [Sink.Stop] raised by a shard stops the other workers and re-raises
    in the caller after the shards have drained. The engine layer builds
    one from the execution's domain pool. *)
type runner = n:int -> sink:Sink.t -> body:(Sink.t -> int -> unit) -> unit

(** [sink bag] — the materializing terminal of a pipeline: every row
    that crosses the pipeline is appended to [bag] (its production was
    already charged). Forkable into per-domain bags appended at drain. *)
val sink : t -> Sink.t

(** [collector bag] — {!sink} for an intermediate result: additionally
    carries a direct path ({!Sink.direct}) through which {!emitter}
    stores rows with exactly {!push}'s per-row cost. *)
val collector : t -> Sink.t

(** [emitter sink] — the serial emit function of one producing loop:
    charges each row and feeds it to [sink]. For a {!collector} this is
    {!push} on its bag; otherwise the row is charged on the ticket
    ambient when the emitter was built (through its own stride counter)
    and fed through [Sink.emit]. Build it once per loop, on the domain
    that runs the loop. *)
val emitter : Sink.t -> Binding.t -> unit

(** [emit_charged shard row] — charge one produced row and emit it into
    a shard sink; safe from any domain. Morsel workers use this: a
    {!collector}'s shard pushes onto its domain-private bag, any other
    shard is charged through the ticket's atomic stride. *)
val emit_charged : Sink.t -> Binding.t -> unit

(** [replay bag ~sink] re-emits a materialized bag into a sink across an
    operator boundary (charged, like the materializing {!union}'s
    re-push). *)
val replay : t -> sink:Sink.t -> unit

val join_into : ?runner:runner -> t -> t -> sink:Sink.t -> unit
val left_outer_join_into : ?runner:runner -> t -> t -> sink:Sink.t -> unit
val sparql_minus_into : t -> t -> sink:Sink.t -> unit

(** [join_sink build ~probe_cols ~sink] — a row-at-a-time join for
    producers that stream their probe side: partitions [build] once on the
    intersection of its domain with [probe_cols] and returns the per-row
    probe function (each match is merged and emitted). *)
val join_sink : t -> probe_cols:int list -> sink:Sink.t -> Binding.t -> unit

(** [probe_merged build ~probe_cols] — the emit-parameterized form of
    {!join_sink}: partitions [build] once and returns a probe function
    over any emitter. The partition is read-only after construction, so
    several domains may probe it concurrently, each emitting into its own
    shard sink. *)
val probe_merged :
  t -> probe_cols:int list -> emit:(Binding.t -> unit) -> Binding.t -> unit

(** [row_compare ~keys ~compare_ids] — the ORDER BY row comparator used by
    {!sort}, exposed for the streaming sort/top-k stages. *)
val row_compare :
  keys:(int * bool) list ->
  compare_ids:(int -> int -> int) ->
  Binding.t ->
  Binding.t ->
  int

(** [pp table fmt bag] prints rows using variable names from [table]. *)
val pp : Vartable.t -> Format.formatter -> t -> unit
