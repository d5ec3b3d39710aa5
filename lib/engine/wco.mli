(** gStore-style worst-case-optimal BGP evaluation.

    Evaluation is vertex-at-a-time: the planner groups consecutive
    patterns that each have the extension column as their only unbound
    position ({!Planner.vstep}), every such pattern resolves to the sorted
    third-column view of one index prefix ({!Rdf_store.Index.column_view}),
    and the extension domain is their k-way intersection with adaptive
    galloping ({!Intersect}). A candidate set on the extension column joins
    the same intersection — sparse sets as one more sorted operand, dense
    bitsets as a load+mask filter inside the kernel. Steps that bind zero
    or several new columns fall back to pattern-at-a-time index scans with
    on-the-fly candidate pruning.

    Every step emits into a sink: a step whose output the next step
    needs is collected into a bag through [Sparql.Bag.collector] (same
    per-row cost as a bag push), the last step feeds the caller's
    pipeline. With [?pool], a step chunks its input bag's rows across the
    pool's domains — except when the bag is small and the intersected
    domain is large (the star-query shape), where the domain itself is
    chunked instead. Every worker emits into its own shard of the sink
    (result order is preserved only up to bag equality). This is safe
    because the store indexes, the plan and the candidate sets are all
    read-only during evaluation.

    [stats] feeds {!Planner.step} seed selection: candidate-seeded lookups
    tie-break on the predicate's average degree at the seeded endpoint. *)

(** [eval_into ?pool snapshot ~stats ~width plan ~candidates ~sink]
    evaluates [plan.vsteps] and emits the BGP's solutions into [sink];
    a downstream LIMIT short-circuits the last step via [Sink.Stop]. The
    empty plan emits the single unit row. *)
val eval_into :
  ?pool:Pool.t ->
  Rdf_store.Snapshot.t ->
  stats:Rdf_store.Stats.t ->
  width:int ->
  Planner.plan ->
  candidates:Candidates.t ->
  sink:Sparql.Sink.t ->
  unit
