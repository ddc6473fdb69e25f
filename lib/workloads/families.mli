(** Workload-family builders.

    Each function models an application archetype as a kernel mixture; the
    per-suite profile modules instantiate these with benchmark-specific
    parameters (working-set size, instruction mix, branch behaviour,
    instruction footprint).  The parameters were chosen from the behaviours
    the paper reports (e.g. blast's outsized working set, mcf's pointer
    chasing, adpcm's tiny perfectly-predictable kernel) and from common
    knowledge of these codes; see DESIGN.md for the substitution argument.

    All builders derive the generation seed from [name], so every
    benchmark gets an independent but reproducible trace. *)

val kernel :
  name:string ->
  ?body:int ->
  ?mix:Mica_trace.Kernel.mix ->
  ?loads:(float * Mica_trace.Kernel.mem_pattern) list ->
  ?stores:(float * Mica_trace.Kernel.mem_pattern) list ->
  ?data_kb:int ->
  ?code:int ->
  ?regions:int ->
  ?call_prob:float ->
  ?trip:int ->
  ?dep_p:float ->
  ?carried:float ->
  ?hot:float ->
  ?branches:(float * Mica_trace.Kernel.branch_kind) list ->
  ?skip:int ->
  ?fp_mul:float ->
  ?fp_div:float ->
  unit ->
  Mica_trace.Kernel.spec
(** Thin named-parameter wrapper over {!Mica_trace.Kernel.default}. *)

val program : name:string -> (float * Mica_trace.Kernel.spec) list list -> Mica_trace.Program.t
(** [program ~name phases] with each phase a weighted kernel list,
    50,000 instructions per phase. *)

val single : name:string -> Mica_trace.Kernel.spec -> Mica_trace.Program.t

(** {1 Archetypes}

    [scale] parameters are data working sets in KB unless noted. *)

val tiny_dsp_loop :
  name:string -> ?data_kb:int -> ?fp:float -> ?stride:int -> unit -> Mica_trace.Program.t
(** adpcm / CRC32 / sha / g721: one small, perfectly predictable kernel
    streaming through a small buffer. *)

val dsp_transform :
  name:string -> ?data_kb:int -> ?fp:float -> ?stride:int -> unit -> Mica_trace.Program.t
(** FFT / epic / mad / lame: floating-point butterflies with power-of-two
    strided access. *)

val block_codec :
  name:string -> ?data_kb:int -> ?imul:float -> ?row_stride:int -> unit -> Mica_trace.Program.t
(** jpeg / mpeg2 / susan / tiff: 8x8-block processing, integer multiplies,
    row-strided and sequential streams. *)

val bitstream_codec :
  name:string -> ?data_kb:int -> ?table_kb:int -> ?branch_bias:float -> unit ->
  Mica_trace.Program.t
(** gzip / bzip2 / zip / cast / pgp: sequential input stream, random
    lookups into model tables, data-dependent (poorly predictable)
    branches. *)

val table_crypto : name:string -> ?table_kb:int -> unit -> Mica_trace.Program.t
(** reed / blowfish: tight loops of table lookups and ALU mixing with
    fully predictable control. *)

val pointer_network :
  name:string -> ?data_kb:int -> ?chase:float -> ?branch_bias:float -> unit ->
  Mica_trace.Program.t
(** drr / frag / rtr / tcp / patricia / dijkstra: linked structures, header
    processing, irregular control. *)

val graph_optimizer : name:string -> ?data_mb:int -> ?chase:float -> unit -> Mica_trace.Program.t
(** mcf / twolf / vpr: pointer chasing over large in-memory graphs; low
    ILP, large data working set. *)

val interpreter :
  name:string -> ?data_mb:int -> ?code_k:int -> ?branch_bias:float -> unit ->
  Mica_trace.Program.t
(** gcc / perlbmk / gap / parser / ispell / ghostscript / typeset: very
    large instruction footprint, frequent calls, mixed irregular data. *)

val oo_database : name:string -> ?data_mb:int -> unit -> Mica_trace.Program.t
(** vortex: object traversal plus substantial code footprint. *)

val fp_stencil :
  name:string -> ?data_mb:int -> ?fp:float -> ?stride:int -> unit -> Mica_trace.Program.t
(** applu / mgrid / swim / equake / lucas / wupwise: regular grid sweeps,
    high ILP, highly predictable loops, large sequential data. *)

val fp_dense :
  name:string -> ?data_kb:int -> ?fp:float -> ?div:float -> unit -> Mica_trace.Program.t
(** csu subspace / facerec / galgel / fma3d / sixtrack: dense linear
    algebra on moderate matrices. *)

val fp_stream : name:string -> ?data_mb:int -> unit -> Mica_trace.Program.t
(** art: repeated floating-point sweeps over arrays that overflow the L1
    but fit the working set in few pages relative to blast. *)

val seq_search :
  name:string -> ?data_mb:int -> ?hit_bias:float -> unit -> Mica_trace.Program.t
(** blast / fasta / hmmer search: sequence-database scanning — huge
    sequential data stream with random jump-offs and compare-heavy inner
    loops. *)

val dynamic_prog :
  name:string -> ?data_kb:int -> ?fp:float -> ?carried:float -> unit -> Mica_trace.Program.t
(** clustalw / ce / glimmer / hmmer build: 2D dynamic-programming
    recurrences with loop-carried dependencies. *)

val tree_search :
  name:string -> ?data_kb:int -> ?fp:float -> unit -> Mica_trace.Program.t
(** phylip / predator: tree traversal mixed with per-node computation. *)

val sort_kernel : name:string -> ?data_kb:int -> unit -> Mica_trace.Program.t
(** qsort: data-dependent comparisons, partition streaming. *)

val bit_kernel : name:string -> ?data_kb:int -> unit -> Mica_trace.Program.t
(** bitcount / basicmath: pure ALU loops over tiny data. *)

val speech_synth : name:string -> ?data_kb:int -> ?fp:float -> unit -> Mica_trace.Program.t
(** rsynth / speak: filter evaluation plus lookup tables. *)

val raytracer : name:string -> ?data_mb:int -> unit -> Mica_trace.Program.t
(** eon: floating-point intersection tests over spatial structures. *)

val sw_render : name:string -> ?data_mb:int -> unit -> Mica_trace.Program.t
(** mesa / ghostscript rasterization: store-heavy span filling plus
    floating-point transforms. *)
