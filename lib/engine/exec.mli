(** Physical plan executor: runs the {!Arc_plan} IR with hash-based join,
    semi/anti-join, aggregation and deduplication operators. Per-row
    semantics (terms, predicates, residual formulas, deferred resolution,
    and the reference fallback) are shared with {!Eval} via its internals,
    so the two engines can only differ in what they enumerate — which is
    exactly what the differential tests check. *)

open Arc_core.Ast

val compile :
  ?conv:Arc_value.Conventions.t ->
  ?externals:Externals.impl list ->
  ?strategy:Eval.recursion_strategy ->
  ?tracer:Arc_obs.Obs.t ->
  ?guard:Arc_guard.Gov.t ->
  db:Arc_relation.Database.t ->
  program ->
  Eval.Internal.ctx * Arc_plan.Ir.program_plan * Arc_plan.Ir.program_plan
  * (string * bool) list
(** [compile ~db prog] validates and lowers [prog], returning the prepared
    evaluation context, the raw lowered plan, the optimized plan, and the
    rewrite report (pass name, whether it changed the plan). *)

val exec_program :
  ?stats:Arc_plan.Ir.stats ->
  ?batched:bool ->
  ?fixpoint:[ `Indexed | `Tuple ] ->
  Eval.Internal.ctx ->
  Arc_plan.Ir.program_plan ->
  Eval.outcome
(** Execute a compiled plan: materializes definition strata into the
    context's IDB (hash-based naive or seminaive fixpoints for recursive
    strata), then runs the main plan. Raises {!Eval.Eval_error} like the
    reference evaluator.

    [batched] (default [true]) selects the block-at-a-time pipeline:
    rows are slot arrays (one tuple per bound variable, at a position
    fixed per plan node), every node's terms, predicates and keys are
    compiled once into closures, hash tables key on values ([Arc_value.Key])
    and governor probes are amortized per block. Both paths emit the same
    rows in the same order; [batched:false] is the tuple-at-a-time
    baseline over binding environments, kept for ablation.

    [fixpoint] (default [`Indexed]) selects the seminaive fixpoint
    implementation for recursive strata: [`Indexed] runs one delta rule
    per component-scan occurrence on the batched pipeline with
    persistent caches — hash-join build tables and component-free
    subtree results survive across rounds, and a seen-set of tuple value
    keys replaces per-round dedup/diff — while [`Tuple] is the
    legacy per-occurrence whole-plan re-execution kept as the ablation
    baseline (BENCH_9). Both produce identical relations and trip
    governor budgets at the same rounds.

    When [stats] is given, every operator additionally records per-node
    actuals (invocations, rows emitted, inclusive wall-clock, hash
    build/probe/match counts, fixpoint iterations and delta sizes) into
    it, keyed by the stable node ids of {!Arc_plan.Ir.program_ids} — the
    raw material for [arc analyze] (see
    {!Arc_plan.Explain.analyze_to_string}). *)

val export_stats :
  Arc_obs.Metrics.t ->
  Arc_plan.Ir.program_plan ->
  Arc_plan.Ir.stats ->
  unit
(** Aggregate a run's per-node actuals into operator-level metrics
    series ([arc_node_invocations_total], [arc_node_rows_total],
    [arc_node_excl_ns], [arc_node_rows], [arc_node_q_error], all labeled
    by [op]). *)

(** {1 Incremental-maintenance hooks}

    Raw operator entry points for {!Arc_ivm}: execute a bare pipeline, a
    collection plan, or one definition stratum against an explicit
    context (stats off). The pipeline form returns binding environments —
    derivations before projection/deduplication — which is what counting-
    based maintenance needs. *)

val exec_pipeline :
  Eval.Internal.ctx ->
  ?outer:Eval.Internal.benv ->
  Arc_plan.Ir.t ->
  Eval.Internal.benv list

val exec_collection :
  Eval.Internal.ctx -> Arc_plan.Ir.coll_plan -> Arc_relation.Relation.t

val exec_stratum_plan : Eval.Internal.ctx -> Arc_plan.Ir.stratum -> unit
(** Materializes the stratum's definitions into the context's IDB,
    running a hash fixpoint for recursive strata (with the same
    stratification check as {!exec_program}). *)

val run :
  ?conv:Arc_value.Conventions.t ->
  ?externals:Externals.impl list ->
  ?strategy:Eval.recursion_strategy ->
  ?tracer:Arc_obs.Obs.t ->
  ?guard:Arc_guard.Gov.t ->
  ?batched:bool ->
  ?fixpoint:[ `Indexed | `Tuple ] ->
  db:Arc_relation.Database.t ->
  program ->
  Eval.outcome
(** Drop-in replacement for {!Eval.run} using the plan engine. *)

val run_rows :
  ?conv:Arc_value.Conventions.t ->
  ?externals:Externals.impl list ->
  ?strategy:Eval.recursion_strategy ->
  ?tracer:Arc_obs.Obs.t ->
  ?guard:Arc_guard.Gov.t ->
  ?batched:bool ->
  ?fixpoint:[ `Indexed | `Tuple ] ->
  db:Arc_relation.Database.t ->
  program ->
  Arc_relation.Relation.t

val run_truth :
  ?conv:Arc_value.Conventions.t ->
  ?externals:Externals.impl list ->
  ?strategy:Eval.recursion_strategy ->
  ?tracer:Arc_obs.Obs.t ->
  ?guard:Arc_guard.Gov.t ->
  ?batched:bool ->
  ?fixpoint:[ `Indexed | `Tuple ] ->
  db:Arc_relation.Database.t ->
  program ->
  Arc_value.Bool3.t
