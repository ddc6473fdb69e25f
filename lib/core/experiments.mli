(** One driver per table and figure of the paper's evaluation.

    Each function returns structured results; [render_*] companions format
    them as text in the shape of the paper's tables.  The CLI and the
    benchmark harness are thin wrappers over this module, and EXPERIMENTS.md
    records paper-versus-measured values produced here. *)

module Context : sig
  type t = {
    config : Pipeline.config;
    workloads : Mica_workloads.Workload.t list;
    mica : Dataset.t;  (** 122 x 47 *)
    hpc : Dataset.t;  (** 122 x 7 *)
    mica_space : Space.t;
    hpc_space : Space.t;
    fitness : Mica_select.Fitness.t;  (** over the normalized MICA space *)
    report : Run_report.t;  (** where each row came from; names any failures *)
    ce : Mica_select.Correlation_elimination.step list Lazy.t;
        (** the correlation-elimination sweep, run on first use: {!run_ce},
            {!fig5} *)
  }

  val load : ?config:Pipeline.config -> ?workloads:Mica_workloads.Workload.t list -> unit -> t
  (** Characterizes (or loads from cache) every workload.  Defaults to the
      full 122-benchmark registry.  Degrades gracefully: workloads whose
      characterization fails permanently are dropped from [workloads] and
      the datasets (and reported in [report]) instead of aborting the
      experiment. *)

  val of_datasets :
    ?config:Pipeline.config ->
    ?report:Run_report.t ->
    workloads:Mica_workloads.Workload.t list ->
    Dataset.t ->
    Dataset.t ->
    t
  (** [of_datasets ~workloads mica hpc] is the context over datasets
      already at hand (for instance the committed baseline), whose rows
      are [workloads] in order.  [report] defaults to an empty one. *)
end

(** {1 Table I — benchmark inventory} *)

val render_table1 : unit -> string

(** {1 Table II — the 47 characteristics} *)

val render_table2 : unit -> string

(** {1 Figure 1 — distance scatter and correlation} *)

type fig1 = {
  points : (float * float) array;  (** (mica distance, hpc distance) per pair *)
  correlation : float;  (** paper: 0.46 *)
}

val fig1 : Context.t -> fig1
val render_fig1 : fig1 -> string
(** Text density plot plus the correlation coefficient. *)

(** {1 Table III — tuple classification} *)

val table3 : ?frac:float -> Context.t -> Classify.counts
val render_table3 : Classify.counts -> string

(** {1 Figures 2 and 3 — the bzip2 vs blast case study} *)

val fig2 : ?a:string -> ?b:string -> Context.t -> Case_study.comparison
(** Hardware counters plus instruction mix (paper default pair:
    SPEC bzip2/graphic vs BioInfoMark blast). *)

val fig3 : ?a:string -> ?b:string -> Context.t -> Case_study.comparison
(** The 47 microarchitecture-independent characteristics. *)

(** {1 Feature selection (sections V-A and V-B)} *)

val run_ce : Context.t -> Mica_select.Correlation_elimination.step list
(** The context's CE sweep: computed by the first call (or {!fig5}), then
    shared. *)

val run_ga :
  ?config:Mica_select.Genetic.config -> ?seed:int64 -> Context.t -> Mica_select.Genetic.result

(** {1 Figure 4 — ROC curves} *)

type roc_entry = { label : string; n_features : int; curve : Mica_stats.Roc.curve }

val fig4 :
  ?frac:float ->
  Context.t ->
  ga:Mica_select.Genetic.result ->
  ce:Mica_select.Correlation_elimination.step list ->
  roc_entry list
(** Curves for: all 47 characteristics; correlation elimination with 17, 12
    and 7 retained; the GA selection.  Paper AUCs: 0.72 / 0.67 / 0.64 /
    0.69. *)

val render_fig4 : roc_entry list -> string

(** {1 Figure 5 — distance correlation vs. retained characteristics} *)

type fig5 = {
  ce_points : (int * float) array;  (** (retained count, rho) along the CE sweep *)
  ga_point : int * float;  (** paper: (8, 0.876); CE at 17 gives 0.823 *)
}

val fig5 : Context.t -> ga:Mica_select.Genetic.result -> fig5
(** Reads the context's CE sweep ({!run_ce}); it does not run it again. *)

val render_fig5 : fig5 -> string

(** {1 Table IV — the selected key characteristics} *)

val render_table4 : Mica_select.Genetic.result -> string

(** {1 Figure 6 — clustering and kiviat diagrams} *)

type fig6 = {
  clustering : Clustering.t;
  axes : string array;  (** short names of the key characteristics *)
  plots : Kiviat.plot list;  (** sorted by cluster *)
}

val fig6 : ?k_max:int -> Context.t -> selected:int array -> fig6
val render_fig6 : fig6 -> string

(** {1 Extended characteristic set (the released tool's direction)} *)

val extended_dataset : Context.t -> Dataset.t
(** All workloads characterized with {!Mica_analysis.Extended} (60
    characteristics), cached alongside the main datasets. *)

type extended_result = {
  ext_ga : Mica_select.Genetic.result;  (** GA over the 60-characteristic space *)
  ext_selected_names : string array;
  ext_extension_picked : int;  (** how many of the selected are extension characteristics *)
}

val extended_selection :
  ?config:Mica_select.Genetic.config -> ?seed:int64 -> Context.t -> extended_result

val render_extended : extended_result -> string

(** {1 Characterization-cost model (section V's 110 vs 37 machine-days)} *)

type cost = {
  full_seconds : float;  (** measuring all 47 characteristics *)
  reduced_seconds : float;  (** measuring only the selected ones *)
  speedup : float;  (** paper: about 3x *)
  sample : int;  (** workloads timed *)
}

val cost_model : ?sample:int -> Context.t -> selected:int array -> cost
val render_cost : cost -> string
