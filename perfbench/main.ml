(* The lowpart benchmark harness.

   [main.exe run --workload W --seed N --seconds S --trace 0|1 ...] sets
   the workload up several times, runs it as a closed loop for at least
   S seconds and [min_samples] operations, checks every output against
   its golden, and prints one JSON record on stdout: the metrics, the
   workload identity and the host diagnostics. [main.exe golden] prints
   the golden file. NOTES.md describes the workloads and the metrics;
   run.py is the command-line front end.

   The harness drives the layers only through their public entry
   points: [Flow.run], [Memo.reset]/[stats]/[initial_stats],
   [Interp.run], [System.run], [Corpus.load]/[verify], the [lowpart
   serve] wire protocol and the [Lp_trace] memory sink. *)

module Flow = Lp_core.Flow
module Memo = Lp_core.Memo
module System = Lp_system.System
module Cache = Lp_cache.Cache
module Corpus = Lp_bench.Corpus
module Apps = Lp_apps.Apps
module Proto = Lp_service.Protocol
module Client = Lp_service.Client
module J = Lp_json

let version = "perfbench/1"

(* Inputs, relative to the root of the checkout. *)
let corpus_path = "bench/corpus.json"
let golden_path = "perfbench/golden.json"
let table1_path = "perfbench/table1.json"
(* Set-ups before and after the window (setup_s is the median of all),
   and the sample floor: a window holds at least 100 operations, so ten
   lie beyond p90. *)
let setups_before = 2
let setups_after = 2
let min_samples = 100
let process_start = Unix.gettimeofday ()
let now = Unix.gettimeofday

(* ---------- small helpers ---------------------------------------- *)

let fail fmt = Printf.ksprintf failwith fmt

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [q] of
   the samples at or below it. *)
let percentile q l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let beyond_p90 n = n - int_of_float (Float.ceil (0.9 *. float_of_int n))
let fsum f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let per n x = if n = 0 then 0.0 else x /. float_of_int n
let hit_rate hits misses = per (hits + misses) (float_of_int hits)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let assoc_value name l =
  List.find_map (fun (k, v, _) -> if k = name then Some v else None) l

let proc_status_kb pid field =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ k; v ] when String.equal k field ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
             | _ -> None)
      |> Option.value ~default:0

let rel_close ~tol a b =
  Float.abs (a -. b) <= tol *. Float.max (Float.abs a) (Float.abs b)

(* ---------- golden outputs and Table 1 reference ----------------- *)

(* What a partitioning run must reproduce: the selection, its hardware
   cost, and the cycles and energy of both co-simulated designs. *)
type summary = {
  selected : int list;
  cells : int;
  i_cycles : int;
  i_energy_j : float;
  p_cycles : int;
  p_energy_j : float;
  saving : float;  (** energy saving, fraction *)
  time_change : float;  (** execution-time change, fraction *)
}

let summary_of_result (r : Flow.result) =
  let cid (s : Flow.selected) =
    s.candidate.Lp_core.Candidate.cluster.Lp_cluster.Cluster.cid
  in
  {
    selected = List.map cid r.selected;
    cells = r.total_cells;
    i_cycles = System.total_cycles r.initial;
    i_energy_j = System.total_energy_j r.initial;
    p_cycles = System.total_cycles r.partitioned;
    p_energy_j = System.total_energy_j r.partitioned;
    saving = r.energy_saving;
    time_change = r.time_change;
  }

let get what = function Some v -> v | None -> fail "missing field %s" what
let member k v = get k (J.member k v)
let int_of k v = get k (J.to_int_opt (member k v))
let float_of k v = get k (J.to_float_opt (member k v))

let ints_of k v =
  get k (J.to_list_opt (member k v))
  |> List.map (fun x -> get k (J.to_int_opt x))

(* A [run] payload of the service ([Lp_report.Export.result_json]). *)
let summary_of_payload p =
  let side k = member k p in
  {
    selected = ints_of "selected" p;
    cells = int_of "total_cells" p;
    i_cycles = int_of "total_cycles" (side "initial");
    i_energy_j = float_of "total_j" (side "initial");
    p_cycles = int_of "total_cycles" (side "partitioned");
    p_energy_j = float_of "total_j" (side "partitioned");
    saving = float_of "energy_saving" p;
    time_change = float_of "time_change" p;
  }

let golden_entry_json s =
  Printf.sprintf
    "{\"selected\":[%s],\"total_cells\":%d,\
     \"initial\":{\"cycles\":%d,\"energy_j\":%.17g},\
     \"partitioned\":{\"cycles\":%d,\"energy_j\":%.17g}}"
    (String.concat "," (List.map string_of_int s.selected))
    s.cells s.i_cycles s.i_energy_j s.p_cycles s.p_energy_j

let golden_of_json v =
  let side k = member k v in
  {
    selected = ints_of "selected" v;
    cells = int_of "total_cells" v;
    i_cycles = int_of "cycles" (side "initial");
    i_energy_j = float_of "energy_j" (side "initial");
    p_cycles = int_of "cycles" (side "partitioned");
    p_energy_j = float_of "energy_j" (side "partitioned");
    saving = Float.nan;
    time_change = Float.nan;
  }

let load_golden () =
  match J.member "entries" (J.of_string (read_file golden_path)) with
  | Some (J.Assoc l) -> List.map (fun (k, v) -> (k, golden_of_json v)) l
  | _ -> fail "%s: no entries object" golden_path

(* [None] when [s] reproduces [golden]: energies within [tol] relative,
   everything else exactly. *)
let mismatch ~tol ~(golden : summary) (s : summary) =
  if s.selected <> golden.selected then Some "selected clusters differ"
  else if s.cells <> golden.cells then Some "total cells differ"
  else if s.i_cycles <> golden.i_cycles || s.p_cycles <> golden.p_cycles then
    Some "cycles differ"
  else if
    not
      (rel_close ~tol s.i_energy_j golden.i_energy_j
      && rel_close ~tol s.p_energy_j golden.p_energy_j)
  then Some "energies differ"
  else None

type table1_row = { t_app : string; t_saving_pct : float; t_time_pct : float }

type table1 = {
  rows : table1_row list;
  seed_energy_err_pp : float;
  seed_time_err_pp : float;
}

let load_table1 () =
  let v = J.of_string (read_file table1_path) in
  let row r =
    {
      t_app = get "app" (J.string_field r "app");
      t_saving_pct = float_of "energy_saving_pct" r;
      t_time_pct = float_of "time_change_pct" r;
    }
  in
  {
    rows = List.map row (get "apps" (J.to_list_opt (member "apps" v)));
    seed_energy_err_pp = float_of "seed_energy_err_pp" v;
    seed_time_err_pp = float_of "seed_time_err_pp" v;
  }

(* Mean |measured - paper| over the Table 1 apps, in percentage points,
   for energy saving and execution-time change. *)
let table1_errors t1 (results : (string * summary) list) =
  let err f g =
    fsum
      (fun row ->
        match List.assoc_opt row.t_app results with
        | Some s -> Float.abs ((100.0 *. f s) -. g row)
        | None -> fail "table 1: no result for %s" row.t_app)
      t1.rows
    /. float_of_int (List.length t1.rows)
  in
  ( err (fun s -> s.saving) (fun r -> r.t_saving_pct),
    err (fun s -> s.time_change) (fun r -> r.t_time_pct) )

(* ---------- inputs ----------------------------------------------- *)

type input = { spec : string; program : Lp_ir.Ast.program }

let build spec =
  match Apps.resolve spec with
  | Ok e -> { spec; program = e.Apps.build () }
  | Error msg -> fail "%s: %s" spec msg

let paper_specs = List.map (fun e -> e.Apps.name) Apps.all

(* The corpus entries the benchmark runs: every tracked entry except
   the stress class, optionally re-seeded. Returns the manifest entries
   to verify (re-seeded specs have none and rely on [Flow]'s own output
   verification) and the specs to run. *)
let corpus_entries ~seeds =
  let entries =
    match Corpus.load corpus_path with
    | Ok es -> List.filter (fun e -> e.Corpus.class_name <> "stress") es
    | Error msg -> fail "%s" msg
  in
  match seeds with
  | None -> (entries, List.map (fun e -> e.Corpus.spec) entries)
  | Some seeds ->
      if List.length seeds <> List.length entries then
        fail "--corpus-seeds needs %d seeds" (List.length entries);
      let specs =
        List.map2
          (fun e s -> Printf.sprintf "gen:%s:%d" e.Corpus.class_name s)
          entries seeds
      in
      (List.filter (fun e -> List.mem e.Corpus.spec specs) entries, specs)

let verified_corpus_specs ~seeds =
  let entries, specs = corpus_entries ~seeds in
  match Corpus.verify entries with
  | [] -> specs
  | errs -> fail "corpus manifest: %s" (String.concat "; " errs)

(* ---------- arguments -------------------------------------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  lowpart : string;  (** the binary serve_warm spawns *)
  corpus_seeds : int list option;
}

let parse_args argv =
  let rec go a = function
    | [] -> a
    | k :: v :: rest ->
        let a =
          match k with
          | "--workload" -> { a with workload = v }
          | "--seed" -> { a with seed = int_of_string v }
          | "--seconds" -> { a with seconds = float_of_string v }
          | "--trace" -> { a with trace = v = "1" }
          | "--lowpart" -> { a with lowpart = v }
          | "--corpus-seeds" ->
              let seeds = List.map int_of_string (String.split_on_char ',' v) in
              { a with corpus_seeds = Some seeds }
          | _ -> fail "unknown argument %s" k
        in
        go a rest
    | [ k ] -> fail "argument %s needs a value" k
  in
  go
    {
      workload = "";
      seed = 1;
      seconds = 10.0;
      trace = false;
      lowpart = "";
      corpus_seeds = None;
    }
    argv

(* ---------- samples and the closed loop -------------------------- *)

(* One timed operation. *)
type sample = {
  s_spec : string;
  s_ms : float;
  s_traced : bool;  (** a trace sink was installed *)
  s_error : string option;
  s_pass : int;  (** which pass (client round, for serve_warm) *)
}

type check = {
  golden : (string * summary) list;
  tol : float;
  strict : bool;  (** every input must have a golden *)
}

let check_summary chk spec s =
  match List.assoc_opt spec chk.golden with
  | Some g -> mismatch ~tol:chk.tol ~golden:g s
  | None when chk.strict -> Some "no golden for this input"
  | None -> None

(* Split checked operations into (spec, summary) pairs and errors. *)
let partition_results rs =
  ( List.filter_map
      (fun (s, smp) -> Option.map (fun s -> (smp.s_spec, s)) s)
      rs,
    List.filter_map
      (fun (_, smp) -> Option.map (fun m -> smp.s_spec ^ ": " ^ m) smp.s_error)
      rs )

(* Whether the window must go on: until it has lasted [seconds] and
   holds [min_samples] samples. A hard cap keeps a run inside its time
   limit on a very slow host. *)
let keep_going ~args ~t0 n =
  let dt = now () -. t0 in
  dt < Float.max (4.0 *. args.seconds) 100.0
  && (dt < args.seconds || n < min_samples)

(* Run whole passes while [keep_going]; [pass p] runs pass [p] and
   returns its operation count. The wall time of every pass. *)
let closed_loop ~args ~t0 pass =
  let rec go p n walls =
    if not (keep_going ~args ~t0 n) then List.rev walls
    else
      let t = now () in
      let k = pass p in
      go (p + 1) (n + k) ((now () -. t) :: walls)
  in
  go 0 0 []

(* ---------- trace digestion -------------------------------------- *)

(* Total seconds per span name, pairing Begin/End per domain. *)
let span_totals events =
  let stacks = Hashtbl.create 8 and totals = Hashtbl.create 16 in
  let total name = Option.value ~default:0.0 (Hashtbl.find_opt totals name) in
  List.iter
    (fun (e : Lp_trace.event) ->
      let st = Option.value ~default:[] (Hashtbl.find_opt stacks e.dom) in
      match e.ph with
      | Begin -> Hashtbl.replace stacks e.dom ((e.name, e.ts_s) :: st)
      | End -> (
          match st with
          | (name, t) :: rest when String.equal name e.name ->
              Hashtbl.replace stacks e.dom rest;
              Hashtbl.replace totals name (total name +. (e.ts_s -. t))
          | _ -> fail "unbalanced trace at %s" e.name)
      | Counter -> ())
    events;
  total

let counter_sum name events =
  List.fold_left
    (fun a (e : Lp_trace.event) ->
      if e.ph = Counter && String.equal e.name name then a + e.value else a)
    0 events

(* Tracing overhead: per input, the traced vs untraced median latency;
   the geometric mean of the ratios, as a percentage. *)
let trace_overhead_pct samples =
  let specs = List.sort_uniq compare (List.map (fun s -> s.s_spec) samples) in
  let log_ratio spec =
    let lat traced =
      median
        (List.filter_map
           (fun s ->
             if s.s_spec = spec && s.s_traced = traced then Some s.s_ms
             else None)
           samples)
    in
    let t = lat true and u = lat false in
    if t > 0.0 && u > 0.0 then Some (log (t /. u)) else None
  in
  match List.filter_map log_ratio specs with
  | [] -> 0.0
  | l -> 100.0 *. (exp (fsum Fun.id l /. float_of_int (List.length l)) -. 1.0)

(* The options of every cold flow: the defaults, with one domain. The
   default [jobs] follows the host's core count, so the workload would
   differ from machine to machine. A second domain also exposes a flow
   to interference on both vCPUs, since every minor collection waits
   for both domains, and it hides the initial simulation behind
   profiling. *)
let cold_options = { Flow.default_options with jobs = 1 }

(* ---------- layer probe (traced run only) ------------------------ *)

(* Direct calls into the interpreter and the system simulator on the
   workload's own programs, three times each; then one cold pass of
   flows under a memory sink for the per-flow counts and the memo
   counters of a cold flow. *)
let layer_probe inputs =
  let timed f =
    let t = now () in
    let r = f () in
    (r, now () -. t)
  in
  let direct i =
    let r, interp_s =
      timed (fun () ->
          Lp_trace.with_span "perfbench.interp" (fun () ->
              Lp_ir.Interp.run i.program))
    in
    let rep, system_s =
      timed (fun () ->
          Lp_trace.with_span "perfbench.system" (fun () ->
              System.run i.program))
    in
    (r, interp_s, rep, system_s)
  in
  let reps = List.init 3 (fun _ -> List.map direct inputs) in
  let first = List.hd reps in
  let rep_total f = median (List.map (fsum f) reps) in
  let interp_s = rep_total (fun (_, s, _, _) -> s)
  and system_s = rep_total (fun (_, _, _, s) -> s) in
  let isum f = List.fold_left (fun a x -> a + f x) 0 first in
  let steps = isum (fun (r, _, _, _) -> r.Lp_ir.Interp.steps)
  and instrs = isum (fun (_, _, rep, _) -> rep.System.instr_count) in
  let caches (_, _, rep, _) = [ rep.System.icache_stats; rep.dcache_stats ] in
  let cache f =
    isum (fun x ->
        List.fold_left (fun a (c : Cache.stats) -> a + f c) 0 (caches x))
  in
  let accesses = cache (fun c -> c.reads + c.writes)
  and misses = cache (fun c -> c.read_misses + c.write_misses) in
  let sink, events = Lp_trace.memory_sink () in
  (* Memo counters: candidate hits, misses; initial hits, misses. *)
  let snapshot () =
    let s = Memo.stats () and is = Memo.initial_stats () in
    [| s.hits; s.misses; is.initial_hits; is.initial_misses |]
  in
  let memo = Array.make 4 0 in
  Lp_trace.set_sink (Some sink);
  let results =
    List.map
      (fun i ->
        Memo.reset ();
        let before = snapshot () in
        let r = Flow.run ~options:cold_options ~name:i.spec i.program in
        Array.iteri (fun k v -> memo.(k) <- memo.(k) + v - before.(k))
          (snapshot ());
        r)
      inputs
  in
  Lp_trace.set_sink None;
  let evs = events () in
  let n = float_of_int (List.length inputs) in
  let total f = List.fold_left (fun a r -> a + f r) 0 results in
  let mean f = float_of_int (total f) /. n in
  let pairs = counter_sum "flow.candidates.pairs" evs in
  let kept = total (fun r -> List.length r.Flow.candidates) in
  let p_ms = span_totals evs "flow.simulate_partitioned" in
  [
    ("interp.steps", float_of_int steps /. n, "count");
    ("interp.ns_per_step", 1e9 *. interp_s /. float_of_int (max 1 steps), "ns");
    ("iss.instrs", float_of_int instrs /. n, "count");
    ("iss.mips", float_of_int instrs /. 1e6 /. system_s, "MIPS");
    ("cache.miss_rate", per accesses (float_of_int misses), "ratio");
    ( "asic.invocations",
      mean (fun r -> r.partitioned.System.asic_invocations),
      "count" );
    (* The flow's I simulation may overlap other stages, so the P stage
       is set against a direct, uncontended I run of the same programs. *)
    ("sim.p_over_i", p_ms /. system_s, "ratio");
    ("preselect.clusters", mean (fun r -> List.length r.chain), "count");
    ("selected.clusters", mean (fun r -> List.length r.selected), "count");
    ("candidates.pairs", float_of_int pairs /. n, "count");
    ("candidates.kept_ratio", per pairs (float_of_int kept), "ratio");
    ("memo.cand_hit_rate", hit_rate memo.(0) memo.(1), "ratio");
    ("memo.initial_hit_rate", hit_rate memo.(2) memo.(3), "ratio");
    ("memo.misses", float_of_int memo.(1) /. n, "count");
  ]

(* ---------- workloads -------------------------------------------- *)

(* What one workload run produced. [layer] holds the per-layer metrics
   only the workload itself can measure (spans, daemon counters, the
   harness's GC); they replace the probe's figures of the same name. *)
type outcome = {
  inputs : input list;  (** distinct inputs, in canonical order *)
  samples : sample list;  (** the timed window *)
  window_s : float;
  pass_wall_s : float list;  (** wall time of every pass (client round) *)
  setup_runs_s : float list;
  setup_errors : string list;
  results : (string * summary) list;  (** one per distinct input *)
  table1_results : (string * summary) list;  (** the six paper apps *)
  peak_rss_kb : int;
  layer : (string * float * string) list;
  clients : int;
  flow_options : Flow.options;  (** of every flow of the window *)
}

let rotate k l =
  let n = List.length l in
  let k = ((k mod n) + n) mod n in
  List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l

(* Run [window] on a fresh set-up. Set-up runs [setups_before] times
   before the window, the first timed from process start and the last
   kept for the window, and [setups_after] times after it, so that
   setup_s, the median of all, samples the host at both ends of the
   run. Every set-up's errors count. *)
let with_setups ~teardown ~errors setup window =
  let timed t0 =
    let st = setup () in
    (st, now () -. t0)
  in
  let discarded t0 =
    let st, dt = timed t0 in
    teardown st;
    (dt, errors st)
  in
  let before = List.init (setups_before - 1) (fun k ->
      discarded (if k = 0 then process_start else now ()))
  in
  let st, dt = timed (if setups_before = 1 then process_start else now ()) in
  let o = window st in
  let after = List.init setups_after (fun _ -> discarded (now ())) in
  let runs = before @ [ (dt, errors st) ] @ after in
  { o with
    setup_runs_s = List.map fst runs;
    setup_errors = List.concat_map snd runs }

(* Per-layer metrics a workload may lack, reported there as 0. *)
let absent units = List.map (fun (k, u) -> (k, 0.0, u)) units

(* Counters of the process that runs the flows in-process. *)
let harness_metric_units =
  [
    ("gc.minor_mwords_per_op", "Mword");
    ("gc.major_per_op", "count");
    ("trace.overhead_pct", "%");
  ]

let stage_metrics per_stage_ms =
  List.map
    (fun st ->
      let name = Flow.stage_name st in
      ("flow." ^ name ^ "_ms", per_stage_ms name, "ms"))
    Flow.[ Profile; Preselect; Simulate_initial; Candidates; Select; Cores;
           Simulate_partitioned ]

(* paper_cold and corpus_scale: every operation is one cold [Flow.run]
   ([Memo.reset] first, [cold_options], no persist dir), sequential.
   With [self_check], set-up also re-runs the six paper apps for the
   Table 1 check. *)
let flow_workload ~args ~chk ~specs_of ~self_check =
  let cold ?(pass = -1) i =
    Memo.reset ();
    let r, dt =
      Lp_trace.timed_span "perfbench.flow" (fun () ->
          match Flow.run ~options:cold_options ~name:i.spec i.program with
          | r -> Ok (summary_of_result r)
          | exception e -> Error (Printexc.to_string e))
    in
    let s, err =
      match r with
      | Ok s -> (Some s, check_summary chk i.spec s)
      | Error m -> (None, Some m)
    in
    let traced = Lp_trace.enabled () in
    (s, { s_spec = i.spec; s_ms = 1e3 *. dt; s_traced = traced; s_error = err;
          s_pass = pass })
  in
  let setup () =
    Memo.reset ();
    let inputs = List.map build (specs_of ()) in
    let t1, e1 =
      if self_check then
        partition_results (List.map (fun s -> cold (build s)) paper_specs)
      else ([], [])
    in
    let results, e2 = partition_results (List.map cold inputs) in
    Gc.full_major ();
    (inputs, (if self_check then t1 else results), results, e1 @ e2)
  in
  with_setups ~teardown:ignore ~errors:(fun (_, _, _, e) -> e) setup
  @@ fun (inputs, table1_results, results, _) ->
  let order = rotate args.seed inputs in
  let sink, events = Lp_trace.memory_sink () in
  let samples = ref [] in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let pass_wall_s =
    closed_loop ~args ~t0 (fun p ->
        if args.trace && p mod 2 = 1 then Lp_trace.set_sink (Some sink);
        List.iter (fun i -> samples := snd (cold ~pass:p i) :: !samples) order;
        Lp_trace.set_sink None;
        List.length order)
  in
  let window_s = now () -. t0 in
  let gc1 = Gc.quick_stat () in
  let samples = List.rev !samples in
  let ops = List.length samples in
  let traced = List.length (List.filter (fun s -> s.s_traced) samples) in
  let span = span_totals (events ()) in
  {
    inputs;
    samples;
    window_s;
    pass_wall_s;
    setup_runs_s = [];
    setup_errors = [];
    results;
    table1_results;
    peak_rss_kb = proc_status_kb "self" "VmHWM";
    layer =
      (if args.trace then
         stage_metrics (fun name -> 1e3 *. per traced (span ("flow." ^ name)))
         @ List.map2
             (fun (k, u) v -> (k, v, u))
             harness_metric_units
             [
               per ops (gc1.minor_words -. gc0.minor_words) /. 1e6;
               per ops (float_of_int (gc1.major_collections - gc0.major_collections));
               trace_overhead_pct samples;
             ]
       else []);
    clients = 1;
    flow_options = cold_options;
  }

(* serve_warm: a [lowpart serve] child process and two client
   connections, each a closed loop of [run] requests over the apps. *)
let serve_apps = paper_specs @ [ "gen:paper:1"; "gen:paper:2" ]
let serve_workers = 2
let serve_clients = 2

let serve_metric_units =
  [
    ("serve.rtt_ms", "ms");
    ("serve.flow_ms", "ms");
    ("serve.overhead_ms", "ms");
    ("serve.queue_hwm", "count");
    ("serve.payload_kb", "kB");
  ]

type daemon = { pid : int; socket : string; conns : Client.t array }

let spawn_daemon ~args ~socket =
  (try Sys.remove socket with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv =
    [| args.lowpart; "serve"; "--workers"; string_of_int serve_workers;
       "--no-persist"; "--socket"; socket |]
  in
  let pid = Unix.create_process args.lowpart argv devnull devnull devnull in
  Unix.close devnull;
  let deadline = now () +. 30.0 in
  let rec connect () =
    match Client.connect (Client.Unix_socket socket) with
    | c -> c
    | exception Unix.Unix_error _ ->
        if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
          fail "lowpart serve exited during start-up";
        if now () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          fail "lowpart serve did not start"
        end;
        Unix.sleepf 0.02;
        connect ()
  in
  { pid; socket; conns = Array.init serve_clients (fun _ -> connect ()) }

let stop_daemon d =
  (try ignore (Client.rpc d.conns.(0) Proto.Shutdown) with _ -> ());
  Array.iter Client.close d.conns;
  let deadline = now () +. 20.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.02;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ();
  try Sys.remove d.socket with Sys_error _ -> ()

(* One [run] request over the raw line protocol, so that the payload
   size is seen: (summary, sample) and the reply's length. *)
let request ~chk ~pass conn app =
  let line =
    J.to_string
      (Proto.request_to_json ~id:(J.String app)
         (Proto.Run { app; options = Proto.no_options; stream = false }))
  in
  let t = now () in
  Client.send_line conn line;
  let reply = Client.recv_line conn in
  let dt = now () -. t in
  let bytes = Option.fold ~none:0 ~some:String.length reply in
  let summary, err =
    match Option.map J.of_string reply with
    | None -> (None, Some "connection closed")
    | Some json -> (
        match Proto.parse_response json with
        | Ok { payload = Ok p; _ } -> (
            match summary_of_payload p with
            | s -> (Some s, check_summary chk app s)
            | exception Failure m -> (None, Some m))
        | Ok { payload = Error (code, m); _ } -> (None, Some (code ^ ": " ^ m))
        | Error m -> (None, Some m))
    | exception J.Parse_error m -> (None, Some m)
  in
  ( (summary, { s_spec = app; s_ms = 1e3 *. dt; s_traced = false;
                s_error = err; s_pass = pass }),
    bytes )

let rpc_payload conn req =
  match (Client.rpc conn req).payload with
  | Ok p -> p
  | Error (code, m) -> fail "%s: %s" code m

(* The daemon's stage totals (seconds) and its candidate-memo hits and
   misses, from its [stats] payload. *)
let daemon_stats conn =
  let p = rpc_payload conn Proto.Stats in
  let stages =
    match member "stages" p with
    | J.Assoc l -> List.map (fun (k, v) -> (k, get k (J.to_float_opt v))) l
    | _ -> fail "stats: no stages object"
  in
  let memo = member "memo" p in
  (stages, int_of "hits" memo, int_of "misses" memo)

let serve_workload ~args ~chk =
  let apps = Array.of_list serve_apps in
  let n = Array.length apps in
  (* Every round holds each app once. The first round of client [c]
     starts at offset [c * n / clients]; later rounds are in an order
     drawn from (seed, client, round), so the two clients' heavy requests
     meet in changing pairs instead of locking into one pattern. *)
  let round_order c r =
    let first = c * n / serve_clients in
    let a = Array.init n (fun j -> apps.((j + first) mod n)) in
    if r > 0 then begin
      let st = Random.State.make [| args.seed; c; r |] in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- x
      done
    end;
    a
  in
  (* The clients in parallel, each running whole rounds while [continue
     round] holds. The requests, and the wall time of every round. *)
  let run_clients d ~continue =
    let out = Array.make serve_clients [] in
    let walls = Array.make serve_clients [] in
    let client c =
      let r = ref 0 in
      while continue !r do
        let t = now () in
        Array.iter
          (fun app ->
            let pass = (c * 100_000) + !r in
            out.(c) <- request ~chk ~pass d.conns.(c) app :: out.(c))
          (round_order c !r);
        walls.(c) <- (now () -. t) :: walls.(c);
        incr r
      done
    in
    List.iter Thread.join (List.init serve_clients (Thread.create client));
    let flat a = List.concat_map List.rev (Array.to_list a) in
    (flat out, flat walls)
  in
  (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
  let setup_count = ref 0 in
  let setup () =
    incr setup_count;
    let socket =
      Printf.sprintf ".bench_out/serve-%d-%d.sock" (Unix.getpid ()) !setup_count
    in
    let d = spawn_daemon ~args ~socket in
    let warm, _ = run_clients d ~continue:(fun r -> r < 1) in
    (d, partition_results (List.map fst warm))
  in
  with_setups
    ~teardown:(fun (d, _) -> stop_daemon d)
    ~errors:(fun (_, (_, e)) -> e)
    setup
  @@ fun (d, (results, _)) ->
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let results = List.sort_uniq (fun (a, _) (b, _) -> compare a b) results in
      let stages0, hits0, misses0 = daemon_stats d.conns.(0) in
      let completed = Atomic.make 0 in
      let t0 = now () in
      let continue r =
        if r > 0 then ignore (Atomic.fetch_and_add completed n);
        keep_going ~args ~t0 (Atomic.get completed)
      in
      let out, pass_wall_s = run_clients d ~continue in
      let window_s = now () -. t0 in
      let samples = List.map (fun ((_, s), _) -> s) out in
      let reqs = List.length samples in
      let stages1, hits1, misses1 = daemon_stats d.conns.(0) in
      let stage_ms name =
        let v l = Option.value ~default:0.0 (List.assoc_opt name l) in
        1e3 *. per reqs (v stages1 -. v stages0)
      in
      let hwm =
        let q = member "queue" (rpc_payload d.conns.(0) Proto.Metrics) in
        float_of_int (int_of "high_water" q)
      in
      let rtt = per reqs (fsum (fun s -> s.s_ms) samples) in
      let flow_ms =
        fsum (fun st -> stage_ms (Flow.stage_name st)) Flow.all_stages
      in
      let bytes = List.fold_left (fun a (_, b) -> a + b) 0 out in
      let kb = per reqs (float_of_int bytes) /. 1024.0 in
      {
        inputs = List.map build serve_apps;
        samples;
        window_s;
        pass_wall_s;
        setup_runs_s = [];
        setup_errors = [];
        results;
        table1_results = results;
        peak_rss_kb = proc_status_kb (string_of_int d.pid) "VmHWM";
        layer =
          (if args.trace then
             let misses = misses1 - misses0 in
             stage_metrics stage_ms
             @ List.map2
                 (fun (k, u) v -> (k, v, u))
                 serve_metric_units
                 [ rtt; flow_ms; rtt -. flow_ms; hwm; kb ]
             @ [
                 ("memo.cand_hit_rate", hit_rate (hits1 - hits0) misses, "ratio");
                 ("memo.misses", per reqs (float_of_int misses), "count");
                 (* The daemon does not report its initial-tier counters,
                    its GC, or a traced run: absent, as serve.* is on the
                    flow workloads. *)
                 ("memo.initial_hit_rate", 0.0, "ratio");
               ]
             @ absent harness_metric_units
           else []);
        clients = serve_clients;
        flow_options = Result.get_ok (Proto.flow_options Proto.no_options);
      })

(* ---------- metrics ---------------------------------------------- *)

(* The samples of each pass, fastest pass first. *)
let passes_by_time samples =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let l = Option.value ~default:[] (Hashtbl.find_opt tbl s.s_pass) in
      Hashtbl.replace tbl s.s_pass (s.s_ms :: l))
    samples;
  Hashtbl.fold (fun _ l acc -> (fsum Fun.id l, l) :: acc) tbl []
  |> List.sort compare |> List.map snd

(* The quiet passes: the fastest passes that together hold
   [min_samples] samples. Other tenants of the host slow this machine in
   bursts, by up to half, and only ever add time; a slower program slows
   every pass, the fastest ones too. *)
let quiet_passes samples =
  let rec take n = function
    | p :: rest when n < min_samples -> p :: take (n + List.length p) rest
    | _ -> []
  in
  take 0 (passes_by_time samples)

(* The timings come from the quiet passes. A pass has a fixed
   composition, so its median sits at the same rank every time, even
   where two inputs meet: p50 is the median over the quiet passes of
   each pass's median. p90 is taken over all their samples, at least ten
   beyond it. Throughput is that of the closed loop at the quiet
   latency: clients / mean latency (Little's law, no think time). *)
let end_to_end ~t1 o =
  let e_err, t_err = table1_errors t1 o.table1_results in
  let quiet = quiet_passes o.samples in
  let latencies = List.concat quiet in
  [
    ("setup_s", median o.setup_runs_s, "s");
    ( "throughput_per_s",
      1e3 *. float_of_int (o.clients * List.length latencies)
      /. fsum Fun.id latencies,
      "1/s" );
    ("latency_p50_ms", median (List.map median quiet), "ms");
    ("latency_p90_ms", percentile 0.9 latencies, "ms");
    ("peak_rss_mb", float_of_int o.peak_rss_kb /. 1024.0, "MB");
    ( "energy_saving_pct",
      100.0 *. fsum (fun (_, s) -> s.saving) o.results
      /. float_of_int (List.length o.results),
      "%" );
    ("table1_energy_err_pp", e_err, "pp");
    ("table1_time_err_pp", t_err, "pp");
  ]

let per_layer o =
  let probe = layer_probe o.inputs in
  let value name l = Option.value ~default:0.0 (assoc_value name l) in
  (* The service layer is absent from the flow workloads: 0 there. *)
  let serve = if o.clients > 1 then [] else absent serve_metric_units in
  let own = List.map (fun (k, _, _) -> k) o.layer in
  let clusters = value "preselect.clusters" probe in
  let us_per_cluster =
    if clusters > 0.0 then 1e3 *. value "flow.preselect_ms" o.layer /. clusters
    else 0.0
  in
  o.layer @ serve
  @ List.filter (fun (k, _, _) -> not (List.mem k own)) probe
  @ [ ("preselect.us_per_cluster", us_per_cluster, "us") ]

(* ---------- the record ------------------------------------------- *)

(* Two fixed loops whose durations say how fast the host ran: one in
   registers, one over a 16 MiB array (memory-bound, like the flows). *)
let calibrate_ms () =
  let timed f =
    let t = now () in
    ignore (Sys.opaque_identity (f ()));
    J.Float (1e3 *. (now () -. t))
  in
  let xorshift x =
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    x lxor (x lsl 17)
  in
  let alu () =
    let x = ref 88172645463325252 in
    for _ = 1 to 20_000_000 do
      x := xorshift !x
    done;
    !x
  in
  let mem () =
    let a = Array.make (1 lsl 21) 0 and x = ref 88172645463325252 in
    for _ = 1 to 4_000_000 do
      x := xorshift !x;
      let i = !x land ((1 lsl 21) - 1) in
      a.(i) <- a.(i) + 1
    done;
    a
  in
  let runs f = J.List (List.init 3 (fun _ -> timed f)) in
  [ ("calibration_alu_ms", runs alu); ("calibration_mem_ms", runs mem) ]

(* CPU time of the whole machine as (steal, total) jiffies, from
   /proc/stat; the steal share says how much the hypervisor took. *)
let cpu_jiffies () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | line :: _ -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields ->
          let v = List.map int_of_string fields in
          (List.nth v 7, List.fold_left ( + ) 0 v)
      | _ -> (0, 0))
  | [] | (exception _) -> (0, 0)

let steal_pct (s0, t0) (s1, t1) =
  per (t1 - t0) (100.0 *. float_of_int (s1 - s0))

let loadavg () =
  match String.split_on_char ' ' (read_file "/proc/loadavg") with
  | a :: b :: c :: _ ->
      J.List (List.map (fun x -> J.Float (float_of_string x)) [ a; b; c ])
  | _ | (exception Sys_error _) -> J.Null

let options_json (o : Flow.options) =
  let scheduler =
    match o.scheduler with
    | List_sched -> "list"
    | Fds s -> Printf.sprintf "fds:%g" s
  in
  J.Assoc
    [
      ("n_max", J.Int o.n_max);
      ("f", J.Float o.f);
      ("cells0", J.Int o.cells0);
      ("max_cells", J.Int o.max_cells);
      ( "resource_sets",
        J.List
          (List.map
             (fun r -> J.String (Lp_tech.Resource_set.name r))
             o.resource_sets) );
      ("asic_vdd_v", J.Float o.asic_vdd_v);
      ("scheduler", J.String scheduler);
      ("platform", J.String (Lp_tech.Platform.to_spec o.config.platform));
      ("verify_outputs", J.Bool o.verify_outputs);
      ("jobs", J.Int o.jobs);
      ("pool_threshold", J.Int o.pool_threshold);
    ]

(* Everything two runs must share to be compared: what ran, on which
   inputs, with which options and parallelism, by which harness. The
   seed only orders the passes and is recorded beside it. *)
let identity ~args o =
  let fingerprint i =
    if Lp_gen.Gen.is_gen_name i.spec then
      Some (i.spec, J.String (Lp_gen.Gen.fingerprint i.program))
    else None
  in
  let daemon =
    Printf.sprintf "serve --workers %d --no-persist" serve_workers
  in
  J.Assoc
    [
      ("benchmark_version", J.String version);
      ("workload", J.String args.workload);
      ("inputs", J.List (List.map (fun i -> J.String i.spec) o.inputs));
      ("corpus_fingerprints", J.Assoc (List.filter_map fingerprint o.inputs));
      ("options", options_json o.flow_options);
      ("jobs", J.Int o.flow_options.jobs);
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("clients", J.Int o.clients);
      ("daemon", if o.clients > 1 then J.String daemon else J.Null);
      ("seconds", J.Float args.seconds);
      ("min_samples", J.Int min_samples);
      ("setups", J.List [ J.Int setups_before; J.Int setups_after ]);
    ]

(* [Lp_json] prints floats with six significant digits; the record
   carries every measurement with all its digits. *)
let rec json_full = function
  | J.Float x when Float.is_finite x ->
      let short = Printf.sprintf "%.15g" x in
      if float_of_string short = x then short else Printf.sprintf "%.17g" x
  | J.Float _ -> "null"
  | J.List l -> "[" ^ String.concat "," (List.map json_full l) ^ "]"
  | J.Assoc l ->
      let field (k, v) = J.to_string (J.String k) ^ ":" ^ json_full v in
      "{" ^ String.concat "," (List.map field l) ^ "}"
  | v -> J.to_string v

let metrics_json l =
  let metric (k, v, u) =
    (k, J.Assoc [ ("value", J.Float v); ("unit", J.String u) ])
  in
  J.Assoc (List.map metric l)

let floats l = J.List (List.map (fun x -> J.Float x) l)

(* Harness self-check: the Table 1 reproduction at the seed commit. *)
let table1_self_check t1 e2e =
  let v k = assoc_value k e2e in
  match (v "table1_energy_err_pp", v "table1_time_err_pp") with
  | Some e, Some t
    when Float.abs (e -. t1.seed_energy_err_pp) < 0.005
         && Float.abs (t -. t1.seed_time_err_pp) < 0.05 ->
      []
  | e, t ->
      let v = Option.value ~default:Float.nan in
      [
        Printf.sprintf
          "table 1 self-check: %.3f pp / %.3f pp, expected %.2f / %.1f"
          (v e) (v t) t1.seed_energy_err_pp t1.seed_time_err_pp;
      ]

let run_workload args =
  let load0 = loadavg () and jiffies0 = cpu_jiffies () in
  let golden = load_golden () and t1 = load_table1 () in
  let seeds = args.corpus_seeds in
  let o =
    match args.workload with
    | "paper_cold" ->
        flow_workload ~args
          ~chk:{ golden; tol = 1e-9; strict = true }
          ~specs_of:(fun () -> paper_specs)
          ~self_check:false
    | "corpus_scale" ->
        flow_workload ~args
          ~chk:{ golden; tol = 1e-9; strict = seeds = None }
          ~specs_of:(fun () -> verified_corpus_specs ~seeds)
          ~self_check:true
    | "serve_warm" ->
        if args.lowpart = "" then fail "serve_warm needs --lowpart";
        (* The wire prints energies with six significant digits. *)
        serve_workload ~args ~chk:{ golden; tol = 1e-5; strict = true }
    | w -> fail "unknown workload %s (paper_cold, corpus_scale, serve_warm)" w
  in
  let e2e = end_to_end ~t1 o in
  let attempted = List.length o.samples in
  let quiet = quiet_passes o.samples in
  let quiet_n = List.length (List.concat quiet) in
  (* The hard cap of [keep_going] may end a window early. *)
  let too_few =
    if quiet_n < min_samples || beyond_p90 quiet_n < 10 then
      [
        Printf.sprintf "window ended with %d samples (%d beyond p90), needs %d"
          quiet_n (beyond_p90 quiet_n) min_samples;
      ]
    else []
  in
  let errors =
    o.setup_errors
    @ List.filter_map
        (fun s -> Option.map (fun m -> s.s_spec ^ ": " ^ m) s.s_error)
        o.samples
    @ table1_self_check t1 e2e @ too_few
  in
  let failed =
    List.length (List.filter (fun s -> Option.is_some s.s_error) o.samples)
  in
  let host =
    [
      ("steal_pct", J.Float (steal_pct jiffies0 (cpu_jiffies ())));
      ("loadavg_start", load0);
      ("loadavg_end", loadavg ());
    ]
    @ calibrate_ms ()
  in
  let record =
    J.Assoc
      [
        ("correct", J.Bool (errors = []));
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ("metrics", metrics_json (if args.trace then per_layer o else e2e));
        ("workload", J.String args.workload);
        ("seed", J.Int args.seed);
        ("trace", J.Bool args.trace);
        ("error_rate", J.Float (per attempted (float_of_int failed)));
        ( "errors",
          J.List
            (List.filteri (fun i _ -> i < 10) errors
            |> List.map (fun m -> J.String m)) );
        ("samples", J.Int attempted);
        ("quiet_passes", J.Int (List.length quiet));
        ("quiet_samples", J.Int quiet_n);
        ("samples_beyond_p90", J.Int (beyond_p90 quiet_n));
        ("window_s", J.Float o.window_s);
        ( "window_throughput_per_s",
          J.Float (float_of_int attempted /. o.window_s) );
        ("pass_wall_ms", floats (List.map (fun s -> 1e3 *. s) o.pass_wall_s));
        ("setup_runs_s", floats o.setup_runs_s);
        ("identity", identity ~args o);
        ("host", J.Assoc host);
      ]
  in
  print_endline (json_full record)

(* The golden file: one cold default-options run of every default-seed
   input of every workload. *)
let print_golden () =
  let entry spec =
    let i = build spec in
    Memo.reset ();
    let r = Flow.run ~options:Flow.default_options ~name:spec i.program in
    Printf.sprintf "%S:%s" spec (golden_entry_json (summary_of_result r))
  in
  let specs = paper_specs @ verified_corpus_specs ~seeds:None in
  Printf.printf "{\"schema\":\"perfbench-golden/1\",\"entries\":{\n%s\n}}\n"
    (String.concat ",\n" (List.map entry specs))

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> run_workload (parse_args rest)
  | [ _; "golden" ] -> print_golden ()
  | _ ->
      prerr_endline
        "usage: main.exe run --workload W [--seed N] [--seconds S] [--trace \
         0|1] [--lowpart PATH] [--corpus-seeds a,b,c,d,e] | main.exe golden";
      exit 2
