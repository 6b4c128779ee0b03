(* Paper-table tool: regenerates every table and figure of the paper's
   evaluation (Section 4) plus the ablations DESIGN.md calls out, and
   records BENCH_flow.json. perfbench/ is the performance harness.

   Subcommands (default = table1 + fig6 + hwcost):

     main.exe [table1|fig6|hwcost|ablation-f|ablation-rs|ablation-nmax|
               cache-sweep|ablation-opt|ablation-sched|ablation-vdd|
               ablation-unroll|future-work|all|flow|corpus --write]

   Experiment index (see DESIGN.md):
     E1 table1        the paper's Table 1
     E2 fig6          the paper's Figure 6
     E3 ablation-f    objective factor F sweep (Fig. 1 line 13)
     E4 ablation-rs   designer resource-set sweep (Section 3.2)
     E5 ablation-nmax pre-selection bound sweep (Section 3.3)
     E6 hwcost        the "<16k cells" hardware audit
     E7 cache-sweep   cache adaptation of the partitioned design
                      (footnote 2)
     E8 ablation-opt  software code quality (IR optimiser, peephole)
     E9 ablation-sched list scheduling vs force-directed scheduling
     E10 ablation-vdd ASIC supply-voltage scaling (multi-voltage ext.)
     E11 ablation-unroll loop unrolling: ILP vs datapath area
     F1 future-work   control-dominated probe app

   Maintenance:
     flow             write BENCH_flow.json: per-stage times of one cold
                      flow on each real workload
     corpus --write   regenerate bench/corpus.json after a deliberate
                      generator change *)

module Flow = Lp_core.Flow
module Memo = Lp_core.Memo
module System = Lp_system.System
module Apps = Lp_apps.Apps
module Tables = Lp_report.Paper_tables
module Parmap = Lp_parallel.Parmap

let section title = Printf.printf "\n== %s ==\n%!" title

(* Applications are independent, so every sweep fans out one flow run
   per application on a transient domain pool. The inner candidate
   fan-out is forced sequential ([jobs = 1]) to avoid nesting domain
   pools; cross-run sharing still happens through the Memo cache, which
   is domain-safe. Orderings are deterministic (Parmap preserves
   indices), so the emitted tables are byte-identical to a sequential
   harness. *)
let bench_domains = Flow.default_jobs - 1

let seq_options = { Flow.default_options with Flow.jobs = 1 }

let par_apps f = Parmap.list ~domains:bench_domains f Apps.all

(* Flow results are reused across subcommands within one invocation. *)
let results =
  lazy
    (par_apps
       (fun (e : Apps.entry) ->
         Flow.run ~options:seq_options ~name:e.name (e.build ())))

let table1 () =
  section
    "E1 / Table 1: per-core energy and execution time, initial (I) vs \
     partitioned (P)";
  print_endline (Tables.table1 (Lazy.force results))

let fig6 () =
  section "E2 / Figure 6: energy savings and execution-time change per application";
  print_endline (Tables.fig6 (Lazy.force results));
  print_newline ();
  print_endline "CSV:";
  print_endline (Tables.fig6_csv (Lazy.force results))

let hwcost () =
  section "E6: ASIC hardware cost (paper claim: < 16k cells per application)";
  print_endline (Tables.hardware_cost (Lazy.force results));
  List.iter
    (fun (r : Flow.result) ->
      if r.Flow.total_cells > 16_000 then
        Printf.printf "!! %s exceeds the 16k-cell budget\n" r.Flow.name)
    (Lazy.force results)

let pct x = Printf.sprintf "%.1f" (100.0 *. x)

let ablation_f () =
  section "E3: objective-function factor F (energy weight vs hardware cost)";
  let fs = [ 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 ] in
  let header =
    "F"
    :: List.concat_map
         (fun (e : Apps.entry) -> [ e.name ^ " sav%"; "cells" ])
         Apps.all
  in
  let rows =
    List.map
      (fun f ->
        let cells =
          par_apps (fun (e : Apps.entry) ->
              let options = { seq_options with Flow.f } in
              let r = Flow.run ~options ~name:e.name (e.build ()) in
              [ pct r.Flow.energy_saving; string_of_int r.Flow.total_cells ])
        in
        Printf.sprintf "%.1f" f :: List.concat cells)
      fs
  in
  print_endline (Lp_report.Table.render ~header rows);
  print_endline
    "(low F: the hardware term dominates and clusters are rejected — the\n\
     paper's 'trick' discussion; high F: energy dominates.)"

let ablation_rs () =
  section "E4: designer resource sets (Section 3.2: '3 to 5 sets are given')";
  let open Lp_tech.Resource_set in
  let variants =
    [
      ("tiny only", [ tiny ]);
      ("small only", [ small ]);
      ("medium only", [ medium_dsp ]);
      ("large only", [ large_dsp ]);
      ("control only", [ control ]);
      ("all five", [ tiny; small; medium_dsp; large_dsp; control ]);
      ("default four", default_sets);
    ]
  in
  let header =
    "sets" :: List.map (fun (e : Apps.entry) -> e.name ^ " sav%") Apps.all
  in
  let rows =
    List.map
      (fun (label, sets) ->
        label
        :: par_apps (fun (e : Apps.entry) ->
               let options = { seq_options with Flow.resource_sets = sets } in
               let r = Flow.run ~options ~name:e.name (e.build ()) in
               pct r.Flow.energy_saving))
      variants
  in
  print_endline (Lp_report.Table.render ~header rows)

let ablation_nmax () =
  section "E5: pre-selection bound N_max (Fig. 1 line 5)";
  let header =
    ("N_max" :: List.map (fun (e : Apps.entry) -> e.name ^ " sav%") Apps.all)
    @ [ "candidates"; "flow time (s)" ]
  in
  let rows =
    List.map
      (fun n_max ->
        let t0 = Unix.gettimeofday () in
        let rs =
          par_apps (fun (e : Apps.entry) ->
              let options = { seq_options with Flow.n_max } in
              Flow.run ~options ~name:e.name (e.build ()))
        in
        let dt = Unix.gettimeofday () -. t0 in
        let evaluated =
          List.fold_left (fun acc r -> acc + List.length r.Flow.candidates) 0 rs
        in
        (string_of_int n_max :: List.map (fun r -> pct r.Flow.energy_saving) rs)
        @ [ string_of_int evaluated; Printf.sprintf "%.2f" dt ])
      [ 1; 2; 4; 8 ]
  in
  print_endline (Lp_report.Table.render ~header rows)

let cache_sweep () =
  section
    "E7: cache adaptation (footnote 2: the partitioned system's access \
     pattern changes)";
  let sizes = [ 512; 1024; 2048; 4096; 8192 ] in
  let apps = [ "mpg"; "engine" ] in
  let header =
    "cache size"
    :: List.concat_map (fun a -> [ a ^ " I total"; a ^ " P total"; "sav%" ]) apps
  in
  let rows =
    List.map
      (fun size ->
        let cfg cache = { cache with Lp_cache.Cache.size_bytes = size } in
        let config =
          {
            System.default_config with
            System.icache = cfg Lp_cache.Cache.default_icache;
            dcache = cfg Lp_cache.Cache.default_dcache;
          }
        in
        let cols =
          List.concat
            (Parmap.list ~domains:bench_domains
               (fun name ->
              let e = Option.get (Apps.find name) in
              let options = { seq_options with Flow.config = config } in
              let r = Flow.run ~options ~name (e.Apps.build ()) in
              [
                Lp_tech.Units.energy_to_string
                  (System.total_energy_j r.Flow.initial);
                Lp_tech.Units.energy_to_string
                  (System.total_energy_j r.Flow.partitioned);
                pct r.Flow.energy_saving;
              ])
               apps)
        in
        Printf.sprintf "%dB" size :: cols)
      sizes
  in
  print_endline (Lp_report.Table.render ~header rows)

let ablation_opt () =
  section
    "E8: software code quality (IR optimiser / assembly peephole) vs      partition";
  (* The instruction-level power work the paper builds on (ref [12])
     treats compiler quality as an energy knob of its own; here we check
     how much of the partitioning story survives better software. *)
  let modes =
    [
      ("baseline", false, false);
      ("+IR optim", true, false);
      ("+peephole", true, true);
    ]
  in
  let header =
    "mode"
    :: List.concat_map
         (fun (e : Apps.entry) -> [ e.name ^ " I total"; "sav%"; "dt%" ])
         Apps.all
  in
  let rows =
    List.map
      (fun (label, use_ir_opt, peephole) ->
        let cols =
          List.concat
            (par_apps (fun (e : Apps.entry) ->
                 let p = e.build () in
                 let p =
                   if use_ir_opt then Lp_ir.Optim.optimize_program p else p
                 in
                 let config = { System.default_config with System.peephole } in
                 let options = { seq_options with Flow.config = config } in
                 let r = Flow.run ~options ~name:e.name p in
                 [
                   Lp_tech.Units.energy_to_string
                     (System.total_energy_j r.Flow.initial);
                   pct r.Flow.energy_saving;
                   Printf.sprintf "%+.1f" (100.0 *. r.Flow.time_change);
                 ]))
        in
        label :: cols)
      modes
  in
  print_endline (Lp_report.Table.render ~header rows)

let ablation_sched () =
  section
    "E9: scheduling algorithm — list (resource-constrained) vs      force-directed (time-constrained)";
  (* Re-schedule every selected cluster's segments with FDS at the list
     schedule's own latency and at 2x, then re-bind: same binder, so
     utilisation and cells are directly comparable. *)
  let module Bind = Lp_bind.Bind in
  let module Sched = Lp_sched.Sched in
  let module Fds = Lp_sched.Fds in
  let header =
    [ "app"; "sched"; "cluster cycles"; "U_R"; "instances"; "GEQ" ]
  in
  let rows =
    List.concat_map
      (fun (r : Flow.result) ->
        List.concat_map
          (fun (core : Flow.core) ->
            let segs = core.Flow.core_segments in
            let describe label (b : Bind.result) =
              [
                r.Flow.name;
                label;
                string_of_int b.Bind.n_cyc;
                Printf.sprintf "%.3f" b.Bind.utilization;
                string_of_int
                  (List.fold_left (fun a (_, n) -> a + n) 0 b.Bind.instances);
                string_of_int b.Bind.geq;
              ]
            in
            let reschedule stretch =
              let segs' =
                List.filter_map
                  (fun (s : Bind.segment_schedule) ->
                    let dfg = s.Bind.sched.Sched.dfg in
                    let budget =
                      max (Fds.min_latency dfg)
                        (stretch * max 1 s.Bind.sched.Sched.length)
                    in
                    Option.map
                      (fun sched -> { Bind.sched; times = s.Bind.times })
                      (Fds.schedule dfg ~latency:budget))
                  segs
              in
              Bind.bind segs'
            in
            [
              describe "list" core.Flow.core_bind;
              describe "fds @1x" (reschedule 1);
              describe "fds @2x" (reschedule 2);
            ])
          r.Flow.cores)
      (Lazy.force results)
  in
  print_endline (Lp_report.Table.render ~header rows);
  (* And as a full-flow end-to-end comparison. *)
  let header2 =
    "scheduler" :: List.map (fun (e : Apps.entry) -> e.name ^ " sav%") Apps.all
  in
  let full label scheduler =
    label
    :: par_apps (fun (e : Apps.entry) ->
           let options = { seq_options with Flow.scheduler } in
           pct (Flow.run ~options ~name:e.name (e.build ())).Flow.energy_saving)
  in
  print_newline ();
  print_endline
    (Lp_report.Table.render ~header:header2
       [
         full "list" Lp_core.Candidate.List_sched;
         full "fds @1x" (Lp_core.Candidate.Fds 1.0);
         full "fds @1.5x" (Lp_core.Candidate.Fds 1.5);
       ])

let ablation_vdd () =
  section
    "E10: ASIC supply-voltage scaling (extension after Hong/Kirovski      DAC'98 [paper ref 10])";
  let header =
    "Vdd"
    :: List.concat_map
         (fun name -> [ name ^ " sav%"; "dt%" ])
         [ "digs"; "ckey"; "trick" ]
  in
  let rows =
    List.map
      (fun v ->
        let cols =
          List.concat
            (Parmap.list ~domains:bench_domains
               (fun name ->
                 let e = Option.get (Apps.find name) in
                 let options = { seq_options with Flow.asic_vdd_v = v } in
                 let r = Flow.run ~options ~name (e.Apps.build ()) in
                 [
                   pct r.Flow.energy_saving;
                   Printf.sprintf "%+.1f" (100.0 *. r.Flow.time_change);
                 ])
               [ "digs"; "ckey"; "trick" ])
        in
        Printf.sprintf "%.1fV" v :: cols)
      [ 3.3; 2.7; 2.0; 1.5; 1.2 ]
  in
  print_endline (Lp_report.Table.render ~header rows);
  print_endline
    "(lower supply: quadratically less ASIC energy, polynomially slower\n\
     cores — the energy-delay trade of multiple-voltage core design.)"

let ablation_unroll () =
  section
    "E11: loop unrolling (HLS preprocessing) — ILP vs datapath area";
  let header =
    [ "app"; "unroll"; "budget"; "sav%"; "ASIC cyc"; "cells" ]
  in
  let items =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun factor ->
            List.map
              (fun budget -> (name, factor, budget))
              [ ("20k", 20_000); ("60k", 60_000) ])
          [ 1; 2; 4 ])
      [ "digs"; "ckey" ]
  in
  let rows =
    Parmap.list ~domains:bench_domains
      (fun (name, factor, (blabel, max_cells)) ->
        let e = Option.get (Apps.find name) in
        let p = e.Apps.build () in
        let p = if factor > 1 then Lp_ir.Optim.unroll ~factor p else p in
        let options = { seq_options with Flow.max_cells } in
        let r = Flow.run ~options ~name p in
        [
          name;
          string_of_int factor;
          blabel;
          pct r.Flow.energy_saving;
          string_of_int r.Flow.partitioned.System.asic_cycles;
          string_of_int r.Flow.total_cells;
        ])
      items
  in
  print_endline (Lp_report.Table.render ~header rows);
  print_endline
    "(unrolling shortens the kernel's schedule but multiplies FSM state\n\
     and register count: under the paper's ~16-20k budget the unrolled\n\
     datapath is priced out, with a lifted budget it wins cycles.)"

let future_work () =
  section
    "F1: control-dominated probe (the paper's stated future work)";
  let entries =
    List.filter
      (fun (e : Apps.entry) -> e.name = "digs" || e.name = "protocol")
      Apps.extended
  in
  let rs = List.map (fun (e : Apps.entry) -> Flow.run ~name:e.name (e.build ())) entries in
  print_endline (Tables.table1 rs);
  print_endline
    "(the protocol automaton offers almost no high-utilisation clusters:\n\
     only its audit kernel moves, and the saving collapses vs the DSP\n\
     suite — exactly why the paper defers control-dominated systems to\n\
     future work.)"

(* --- BENCH_flow.json: where one cold flow spends its time, per real
   workload and per pipeline stage. The workloads are the six paper apps
   and the non-stress entries of the corpus manifest, the ones
   perfbench's paper_cold and corpus_scale run. Each is run memo-cold on
   one domain twice; the faster run's [Flow.stage_times] are kept. --- *)

let corpus_manifest_path () =
  if Sys.file_exists "corpus.json" then "corpus.json" else "bench/corpus.json"

let flow_runs = 2

let ms s = Float.round (s *. 1e6) /. 1e3

let flow_record () =
  let module Corpus = Lp_bench.Corpus in
  let module J = Lp_json in
  section "BENCH_flow.json: per-stage cold flow times on the real workloads";
  let corpus_specs =
    match Corpus.load (corpus_manifest_path ()) with
    | Ok es ->
        List.filter_map
          (fun (e : Corpus.entry) ->
            if e.Corpus.class_name = "stress" then None else Some e.Corpus.spec)
          es
    | Error msg -> failwith msg
  in
  let total (r : Flow.result) =
    List.fold_left (fun a (_, dt) -> a +. dt) 0.0 r.Flow.stage_times
  in
  let record spec =
    let program = (Result.get_ok (Apps.resolve spec)).Apps.build () in
    let runs =
      List.init flow_runs (fun _ ->
          Memo.reset ();
          Flow.run ~options:seq_options ~name:spec program)
    in
    let best =
      List.fold_left
        (fun b r -> if total r < total b then r else b)
        (List.hd runs) (List.tl runs)
    in
    Memo.reset ();
    Printf.printf "  %-12s %9.3f ms\n%!" spec (ms (total best));
    J.Assoc
      [
        ("spec", J.String spec);
        ("fingerprint", J.String (Lp_gen.Gen.fingerprint program));
        ("total_ms", J.Float (ms (total best)));
        ( "stages",
          J.Assoc
            (List.map
               (fun (st, dt) -> (Flow.stage_name st, J.Float (ms dt)))
               best.Flow.stage_times) );
      ]
  in
  let paper = List.map record Apps.names in
  let workloads = paper @ List.map record corpus_specs in
  let doc =
    J.Assoc
      [
        ("schema", J.String "lowpart-bench-flow/2");
        ("jobs", J.Int seq_options.Flow.jobs);
        ("nproc", J.Int (Domain.recommended_domain_count ()));
        ("runs", J.Int flow_runs);
        ("workloads", J.List workloads);
      ]
  in
  Out_channel.with_open_bin "BENCH_flow.json" (fun oc ->
      output_string oc (J.to_string doc);
      output_char oc '\n');
  print_endline "  wrote BENCH_flow.json"

(* Regenerate bench/corpus.json from Corpus.default_pairs (maintenance:
   run after deliberately changing the generator, then commit). *)
let corpus_write () =
  let module Corpus = Lp_bench.Corpus in
  let module Gen = Lp_gen.Gen in
  section "corpus manifest regeneration";
  let path = corpus_manifest_path () in
  let entries =
    List.map
      (fun (cls, seed) ->
        let spec = Option.get (Gen.find_class cls) in
        let e = Corpus.measure spec ~seed in
        Printf.printf "  %-14s fp %s  stmts %6d  trace %8d instrs\n%!"
          e.Corpus.spec e.Corpus.fingerprint e.Corpus.stmts
          e.Corpus.trace_instrs;
        e)
      Corpus.default_pairs
  in
  Corpus.save path entries;
  Printf.printf "  wrote %s (%d entries)\n%!" path (List.length entries)

let usage () =
  print_endline
    "usage: main.exe \
     [table1|fig6|hwcost|ablation-f|ablation-rs|ablation-nmax|cache-sweep|\
     ablation-opt|ablation-sched|ablation-vdd|ablation-unroll|future-work|\
     all|flow|corpus --write]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let run_default () =
    table1 ();
    fig6 ();
    hwcost ()
  in
  match args with
  | [] -> run_default ()
  | [ "table1" ] -> table1 ()
  | [ "fig6" ] -> fig6 ()
  | [ "hwcost" ] -> hwcost ()
  | [ "ablation-f" ] -> ablation_f ()
  | [ "ablation-rs" ] -> ablation_rs ()
  | [ "ablation-nmax" ] -> ablation_nmax ()
  | [ "cache-sweep" ] -> cache_sweep ()
  | [ "ablation-opt" ] -> ablation_opt ()
  | [ "ablation-sched" ] -> ablation_sched ()
  | [ "ablation-vdd" ] -> ablation_vdd ()
  | [ "ablation-unroll" ] -> ablation_unroll ()
  | [ "future-work" ] -> future_work ()
  | [ "flow" ] -> flow_record ()
  | [ "corpus"; "--write" ] -> corpus_write ()
  | [ "all" ] ->
      run_default ();
      ablation_f ();
      ablation_rs ();
      ablation_nmax ();
      cache_sweep ();
      ablation_opt ();
      ablation_sched ();
      ablation_vdd ();
      ablation_unroll ();
      future_work ()
  | _ -> usage ()
