(* lowpart — command-line front end of the low-power hardware/software
   partitioning flow.

     lowpart list                  enumerate benchmark applications
     lowpart run [APPS] [-f F]     run the full flow, print Table 1 etc.
     lowpart simulate APP          simulate the unpartitioned design
     lowpart dump APP [--asm]      print the IR (or compiled assembly)
     lowpart serve                 long-lived partitioning daemon
     lowpart client CMD ...        talk to a running daemon
     lowpart explore [APPS]        design-space search, Pareto frontiers
*)

open Cmdliner

let setup_logs verbose =
  (* The Logs_fmt reporter formats straight into a shared Format
     buffer; with [-j] > 1 (and under the multi-domain server) two
     domains logging at once would interleave half-rendered lines.
     One mutex around each report keeps every line whole. *)
  let base = Logs_fmt.reporter () in
  let m = Mutex.create () in
  let report src level ~over k msgf =
    Mutex.lock m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock m)
      (fun () -> base.Logs.report src level ~over k msgf)
  in
  Logs.set_reporter { Logs.report };
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

let resolve_apps names =
  match names with
  | [] -> Ok Lp_apps.Apps.all
  | names ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | n :: rest -> (
            match Lp_apps.Apps.resolve n with
            | Ok e -> go (e :: acc) rest
            | Error msg -> Error msg)
      in
      go [] names

module Platform = Lp_tech.Platform

(* [--platform] keeps the raw spec string on the client side (the wire
   carries specs, the daemon resolves them); local commands resolve it
   here with the same parser. *)
let platform_spec_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "platform" ] ~docv:"NAME[:K=V,..]"
        ~doc:
          "Target uP platform: one of $(b,tiny), $(b,sparclite) \
           (default), $(b,mid), $(b,large), with optional inline \
           overrides — keys vdd, clock, peak, icache, dcache, \
           mem_latency, mem_access_nj, mem_standby_mw (e.g. \
           $(b,sparclite:vdd=2.7,clock=12)). See $(b,lowpart list \
           --platforms).")

let resolve_platform = function
  | None -> None
  | Some spec -> (
      match Platform.of_spec spec with
      | Ok (p, _) -> Some p
      | Error msg ->
          Printf.eprintf "--platform: %s\n" msg;
          exit 2)

let platform_config ?(base = Lp_system.System.default_config) platform =
  match resolve_platform platform with
  | None -> base
  | Some p -> Lp_system.System.config_of_platform ~base p

let geom_string (g : Platform.cache_geom) =
  Printf.sprintf "%dB/%d/%d%s" g.Platform.geom_size_bytes
    g.Platform.geom_line_bytes g.Platform.geom_assoc
    (if g.Platform.geom_write_through then "/wt" else "")

let print_platforms () =
  Printf.printf "%-10s %5s %7s %7s %-12s %-12s %8s\n" "name" "Vdd"
    "clock" "peak" "icache" "dcache" "mem lat";
  List.iter
    (fun (p : Platform.t) ->
      Printf.printf "%-10s %4.1fV %4.0fMHz %4.0fMHz %-12s %-12s %5d cy%s\n"
        p.Platform.name p.Platform.core_vdd_v p.Platform.clock_mhz
        p.Platform.peak_clock_mhz
        (geom_string p.Platform.icache)
        (geom_string p.Platform.dcache)
        p.Platform.mem_first_word_latency
        (if Platform.equal p Platform.default then "  (default)" else ""))
    Platform.presets;
  Printf.printf
    "\ninline overrides: NAME:key=value,.. with keys vdd, clock, peak, \
     icache, dcache (SIZE/LINE/ASSOC[/wb|wt]), mem_latency, \
     mem_access_nj, mem_standby_mw\n"

let list_cmd =
  let doc = "List the benchmark applications." in
  let platforms_arg =
    Arg.(
      value & flag
      & info [ "platforms" ]
          ~doc:
            "Instead of applications, list the named uP platforms \
             ($(b,--platform) presets): core Vdd, clock, cache \
             geometries and memory latency.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt ~vopt:(Some "bench/corpus.json") (some string) None
      & info [ "corpus" ] ~docv:"FILE"
          ~doc:
            "Instead of the built-in applications, list the tracked \
             generator corpus from $(docv) (default bench/corpus.json): \
             spec, fingerprint, size and trace length of every pinned \
             workload.")
  in
  let run platforms corpus =
    if platforms then print_platforms ()
    else
    match corpus with
    | None ->
        List.iter
          (fun (e : Lp_apps.Apps.entry) ->
            Printf.printf "%-8s %s\n" e.name e.description)
          Lp_apps.Apps.all;
        Printf.printf
          "\ngenerated apps: gen:<class>:<seed> with class one of %s\n"
          (String.concat ", " Lp_gen.Gen.class_names)
    | Some path -> (
        match Lp_bench.Corpus.load path with
        | Error msg ->
            Printf.eprintf "lowpart list --corpus: %s: %s\n" path msg;
            exit 1
        | Ok entries ->
            Printf.printf "%-16s %-32s %8s %12s\n" "spec" "fingerprint"
              "stmts" "trace";
            List.iter
              (fun (e : Lp_bench.Corpus.entry) ->
                Printf.printf "%-16s %-32s %8d %12d\n" e.spec e.fingerprint
                  e.stmts e.trace_instrs)
              entries)
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ platforms_arg $ corpus_arg)

let apps_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"APP" ~doc:"Applications to run (default: all).")

let f_arg =
  Arg.(
    value
    & opt float Lp_core.Objective.default_f
    & info [ "f" ] ~docv:"F" ~doc:"Objective-function balance factor F.")

let nmax_arg =
  Arg.(
    value & opt int 8
    & info [ "n-max" ] ~docv:"N"
        ~doc:"Maximum number of pre-selected clusters.")

let detail_arg =
  Arg.(value & flag & info [ "detail" ] ~doc:"Print per-app partitioning decisions.")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "optimize" ]
        ~doc:"Run the IR optimiser (fold/propagate/DSE) before the flow.")

let unroll_arg =
  Arg.(
    value & opt int 1
    & info [ "unroll" ] ~docv:"N"
        ~doc:"Partially unroll constant-bound loops by a factor of $(docv).")

let peephole_arg =
  Arg.(
    value & flag
    & info [ "peephole" ] ~doc:"Enable the assembly peephole optimiser.")

let jobs_arg =
  Arg.(
    value
    & opt int Lp_core.Flow.default_jobs
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Evaluate partitioning candidates on $(docv) domains in \
           parallel (1 = sequential; results are identical either way).")

let prepare ~optimize ~unroll p =
  let p = if optimize then Lp_ir.Optim.optimize_program p else p in
  if unroll > 1 then Lp_ir.Optim.unroll ~factor:unroll p else p

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write results as JSON (the same payload the service answers; \
           $(b,run) adds a $(i,stages) wall-time block) to $(docv); \
           $(b,-) writes it to stdout instead of the tables.")

let trace_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Emit one span-trace event per line (JSON, Chrome-trace-like \
           ph/name/dom/ts fields) covering every flow stage to $(docv); \
           plain $(b,--trace) writes the events to stderr.")

let with_trace trace f =
  match trace with
  | None -> f ()
  | Some dest ->
      let sink =
        if dest = "-" then Lp_trace.stderr_sink () else Lp_trace.file_sink dest
      in
      Lp_trace.set_sink (Some sink);
      Fun.protect ~finally:Lp_trace.close f

let run_flow ~f ~n_max ~jobs ~optimize ~unroll ~peephole ~platform
    (e : Lp_apps.Apps.entry) =
  let config =
    { (platform_config platform) with Lp_system.System.peephole }
  in
  let options = { Lp_core.Flow.default_options with f; n_max; jobs; config } in
  Lp_core.Flow.run ~options ~name:e.name (prepare ~optimize ~unroll (e.build ()))

let run_cmd =
  let doc = "Run the partitioning flow and print the paper's tables." in
  let run verbose names f n_max jobs detail json trace optimize unroll
      peephole platform =
    setup_logs verbose;
    match resolve_apps names with
    | Error msg ->
        prerr_endline msg;
        exit 2
    | Ok entries ->
        let results =
          with_trace trace (fun () ->
              List.map
                (run_flow ~f ~n_max ~jobs ~optimize ~unroll ~peephole
                   ~platform)
                entries)
        in
        (match json with
        | Some "-" ->
            print_endline (Lp_report.Export.results_json ~stages:true results)
        | Some path ->
            let oc = open_out path in
            output_string oc
              (Lp_report.Export.results_json ~stages:true results);
            output_char oc '\n';
            close_out oc
        | None -> ());
        if json <> Some "-" then begin
        print_endline "== Table 1: energy and execution time, initial (I) vs partitioned (P) ==";
        print_endline (Lp_report.Paper_tables.table1 results);
        print_newline ();
        print_endline "== Figure 6: energy savings and execution-time change ==";
        print_endline (Lp_report.Paper_tables.fig6 results);
        print_newline ();
        print_endline "== Hardware cost ==";
        print_endline (Lp_report.Paper_tables.hardware_cost results);
        if detail then
          List.iter
            (fun r ->
              print_newline ();
              print_string (Lp_report.Paper_tables.partition_detail r))
            results
        end
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ verbose_arg $ apps_arg $ f_arg $ nmax_arg $ jobs_arg
      $ detail_arg $ json_arg $ trace_arg $ optimize_arg $ unroll_arg
      $ peephole_arg $ platform_spec_arg)

let app_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP")

let simulate_cmd =
  let doc = "Simulate the unpartitioned design of one application." in
  let run verbose name platform =
    setup_logs verbose;
    match Lp_apps.Apps.resolve name with
    | Error msg ->
        prerr_endline msg;
        exit 2
    | Ok e ->
        let config = platform_config platform in
        let report = Lp_system.System.run ~config (e.build ()) in
        Format.printf "%a@." Lp_system.System.pp_report report;
        print_newline ();
        print_endline "uP instruction-class energy breakdown:";
        print_endline (Lp_report.Paper_tables.uproc_breakdown report)
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(const run $ verbose_arg $ app_pos $ platform_spec_arg)

let asm_arg =
  Arg.(value & flag & info [ "asm" ] ~doc:"Dump compiled assembly instead of IR.")

let dump_cmd =
  let doc = "Print an application's IR or compiled assembly." in
  let run name asm =
    match Lp_apps.Apps.resolve name with
    | Error msg ->
        prerr_endline msg;
        exit 2
    | Ok e ->
        let p = e.build () in
        if asm then begin
          let prog, _layout = Lp_compiler.Compiler.compile p in
          Format.printf "%a@." Lp_isa.Isa.pp_program prog
        end
        else Format.printf "%a@." Lp_ir.Printer.pp_program p
  in
  Cmd.v (Cmd.info "dump" ~doc) Term.(const run $ app_pos $ asm_arg)

let synth_cmd =
  let doc = "Run the flow and emit structural Verilog for every synthesised core." in
  let run verbose name =
    setup_logs verbose;
    match Lp_apps.Apps.resolve name with
    | Error msg ->
        prerr_endline msg;
        exit 2
    | Ok e -> (
        let r = Lp_core.Flow.run ~name:e.Lp_apps.Apps.name (e.build ()) in
        match r.Lp_core.Flow.cores with
        | [] -> print_endline "// no clusters selected: nothing to synthesise"
        | cores ->
            List.iter
              (fun core -> print_endline (Lp_core.Flow.core_verilog r core))
              cores)
  in
  Cmd.v (Cmd.info "synth" ~doc) Term.(const run $ verbose_arg $ app_pos)

let file_cmd =
  let doc = "Parse a behavioural description from a text file and run              the partitioning flow on it." in
  let path_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run verbose path f n_max jobs optimize unroll =
    setup_logs verbose;
    let ic = open_in path in
    let len = in_channel_length ic in
    let src = really_input_string ic len in
    close_in ic;
    match Lp_ir.Parse.program_of_string src with
    | exception Lp_ir.Parse.Parse_error msg ->
        Printf.eprintf "%s: %s
" path msg;
        exit 2
    | exception Lp_ir.Validate.Error msg ->
        Printf.eprintf "%s: %s
" path msg;
        exit 2
    | program ->
        let options = { Lp_core.Flow.default_options with f; n_max; jobs } in
        let name = Filename.remove_extension (Filename.basename path) in
        let program = prepare ~optimize ~unroll program in
        let r = Lp_core.Flow.run ~options ~name program in
        print_endline (Lp_report.Paper_tables.table1 [ r ]);
        print_newline ();
        print_string (Lp_report.Paper_tables.partition_detail r)
  in
  Cmd.v (Cmd.info "file" ~doc)
    Term.(
      const run $ verbose_arg $ path_arg $ f_arg $ nmax_arg $ jobs_arg
      $ optimize_arg $ unroll_arg)

let graph_cmd =
  let doc = "Emit graphviz (dot) for an application's cluster chain and              its kernels' dataflow graphs." in
  let run name =
    match Lp_apps.Apps.resolve name with
    | Error msg ->
        prerr_endline msg;
        exit 2
    | Ok e ->
        let p = e.build () in
        let chain = Lp_cluster.Cluster.decompose p in
        print_endline (Lp_report.Export.chain_dot chain);
        List.iter
          (fun (c : Lp_cluster.Cluster.t) ->
            if Lp_cluster.Cluster.asic_candidate c then
              List.iter
                (fun (seg : Lp_cluster.Cluster.segment) ->
                  match
                    Lp_ir.Dfg.of_segment seg.Lp_cluster.Cluster.seg_exprs
                      seg.Lp_cluster.Cluster.seg_stmts
                  with
                  | Some dfg when Lp_ir.Dfg.node_count dfg > 2 ->
                      print_endline (Lp_report.Export.dfg_dot dfg)
                  | Some _ | None -> ())
                (Lp_cluster.Cluster.segments c))
          chain
  in
  Cmd.v (Cmd.info "graph" ~doc) Term.(const run $ app_pos)

(* --- design-space exploration: `lowpart explore` ------------------- *)

module E = Lp_explore.Explore

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "PRNG seed of the adaptive strategy. Echoed in every JSON \
           export, so a published frontier names the seed that \
           reproduces it.")

let strategy_conv =
  let parse s =
    match E.Strategy.of_string s with
    | Ok _ as ok -> ok
    | Error msg -> Error (`Msg msg)
  in
  let print ppf t = Format.pp_print_string ppf (E.Strategy.name t) in
  Arg.conv (parse, print)

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv E.Strategy.grid
    & info [ "strategy" ] ~docv:"S"
        ~doc:
          "Search strategy: $(b,grid) (exhaustive), $(b,anneal), \
           $(b,anneal:BUDGET) or $(b,anneal:BUDGET:CHAINS) (simulated \
           annealing).")

let journal_arg =
  Arg.(
    value
    & opt ~vopt:(Some ".lowpart-explore") (some string) None
    & info [ "journal" ] ~docv:"DIR"
        ~doc:
          "Checkpoint every completed point under $(docv) (bare \
           $(b,--journal) uses $(b,.lowpart-explore)); re-running the \
           same exploration resumes from the checkpoints instead of \
           re-evaluating finished points.")

let axis_values_arg item name doc =
  Arg.(
    value
    & opt (some (list item)) None
    & info [ name ] ~docv:"V,.." ~doc)

let f_values_arg =
  axis_values_arg Arg.float "f-values"
    "Objective-factor axis (default: 0.5,1,2,4,8,16)."

let max_cells_values_arg =
  axis_values_arg Arg.int "max-cells-values"
    "Hardware-budget axis in ASIC cells (default: 8000,16000,24000)."

let n_max_values_arg =
  axis_values_arg Arg.int "n-max-values"
    "Pre-selection-bound axis (default: just the flow default)."

let vdd_values_arg =
  axis_values_arg Arg.float "vdd-values"
    "ASIC supply-voltage axis in volts (default: just nominal)."

let platform_values_arg =
  axis_values_arg Arg.string "platform-values"
    "uP-platform axis: comma-separated platform specs, each as in \
     $(b,--platform) (default: just the default platform)."

let resolve_platform_axis = function
  | None -> None
  | Some specs ->
      Some
        (List.map
           (fun spec ->
             match Platform.of_spec spec with
             | Ok (p, _) -> (Platform.to_spec p, p)
             | Error msg ->
                 Printf.eprintf "--platform-values: %s\n" msg;
                 exit 2)
           specs)

let print_explore_result (r : E.result) =
  Printf.printf
    "== Pareto frontier of %S — %s, seed %d: %d points, %d evaluated, %d \
     from journal ==\n"
    r.app r.strategy r.seed (List.length r.log) r.evaluated r.journal_hits;
  let rows =
    List.map
      (fun (o : E.outcome) ->
        [
          Printf.sprintf "%.2f" o.point.f;
          string_of_int o.point.n_max;
          string_of_int o.point.max_cells;
          Printf.sprintf "%.2f" o.point.asic_vdd_v;
          o.point.platform;
          Printf.sprintf "%.4g" o.metrics.energy_j;
          string_of_int o.metrics.cells;
          Printf.sprintf "%+.0f%%" (100.0 *. o.metrics.time_change);
          Printf.sprintf "%.1f%%" (100.0 *. o.metrics.energy_saving);
        ])
      r.frontier
  in
  print_endline
    (Lp_report.Table.render
       ~header:
         [
           "F"; "N_max"; "max cells"; "Vdd"; "platform"; "energy [J]";
           "ASIC cells"; "time"; "saving";
         ]
       rows)

let explore_cmd =
  let doc =
    "Search the partitioning design space and print the Pareto frontier \
     over (energy, ASIC cells, execution-time change)."
  in
  let run verbose names strategy seed jobs journal json trace fvs nvs cvs vvs
      pvs =
    setup_logs verbose;
    match resolve_apps names with
    | Error msg ->
        prerr_endline msg;
        exit 2
    | Ok entries ->
        let space =
          let d = E.default_space in
          {
            d with
            E.f_values = Option.value fvs ~default:d.E.f_values;
            n_max_values = Option.value nvs ~default:d.E.n_max_values;
            max_cells_values = Option.value cvs ~default:d.E.max_cells_values;
            vdd_values = Option.value vvs ~default:d.E.vdd_values;
            platform_choices =
              Option.value (resolve_platform_axis pvs)
                ~default:d.E.platform_choices;
          }
        in
        let explore pool (e : Lp_apps.Apps.entry) =
          E.run ~strategy ~seed ~jobs ?pool ?journal_dir:journal ~space
            ~name:e.name (e.build ())
        in
        (* One pool for all apps: domain spin-up is paid once and the
           memo stays warm across the whole sweep. *)
        let results =
          with_trace trace (fun () ->
              if jobs > 1 then
                Lp_parallel.Pool.with_pool ~domains:(jobs - 1) (fun p ->
                    List.map (explore (Some p)) entries)
              else List.map (explore None) entries)
        in
        let json_payload () =
          Lp_json.to_string (Lp_json.List (List.map E.to_json results))
        in
        (match json with
        | Some "-" -> print_endline (json_payload ())
        | Some path ->
            let oc = open_out path in
            output_string oc (json_payload ());
            output_char oc '\n';
            close_out oc
        | None -> ());
        if json <> Some "-" then List.iter print_explore_result results
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const run $ verbose_arg $ apps_arg $ strategy_arg $ seed_arg $ jobs_arg
      $ journal_arg $ json_arg $ trace_arg $ f_values_arg $ n_max_values_arg
      $ max_cells_values_arg $ vdd_values_arg $ platform_values_arg)

(* --- the service: `lowpart serve` and `lowpart client` ------------- *)

let socket_arg =
  Arg.(
    value
    & opt string "lowpart.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on.")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT"
        ~doc:"Also listen on loopback TCP port $(docv).")

let serve_cmd =
  let doc =
    "Run the partitioning flow as a long-lived daemon answering \
     line-delimited JSON requests."
  in
  let workers_arg =
    Arg.(
      value
      & opt int Lp_core.Flow.default_jobs
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains answering compute requests.")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bound on queued + running compute requests; past it the \
             daemon answers a structured $(i,overloaded) error.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 300.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-request compute deadline (0 disables it).")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt string ".lowpart-cache"
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Root of the persistent candidate cache (survives daemon \
             restarts).")
  in
  let no_persist_arg =
    Arg.(
      value & flag
      & info [ "no-persist" ] ~doc:"Keep the candidate cache in memory only.")
  in
  let run verbose socket tcp workers queue timeout cache_dir no_persist =
    setup_logs verbose;
    if workers < 1 then begin
      Printf.eprintf "serve: --workers must be at least 1 (got %d)\n" workers;
      exit 1
    end;
    let config =
      {
        Lp_service.Server.socket_path = Some socket;
        tcp_port = tcp;
        workers;
        queue_bound = queue;
        timeout_s = timeout;
        cache_dir = (if no_persist then None else Some cache_dir);
        handle_signals = true;
      }
    in
    match Lp_service.Server.serve config with
    | () -> ()
    | exception Unix.Unix_error (err, fn, arg) ->
        Printf.eprintf "serve: %s (%s %s)\n" (Unix.error_message err) fn arg;
        exit 1
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ verbose_arg $ socket_arg $ tcp_arg $ workers_arg $ queue_arg
      $ timeout_arg $ cache_dir_arg $ no_persist_arg)

let endpoint socket tcp =
  match tcp with
  | Some port -> Lp_service.Client.Tcp ("127.0.0.1", port)
  | None -> Lp_service.Client.Unix_socket socket

let with_client socket tcp k =
  match Lp_service.Client.connect (endpoint socket tcp) with
  | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "client: cannot reach the daemon: %s\n"
        (Unix.error_message err);
      exit 1
  | c ->
      Fun.protect ~finally:(fun () -> Lp_service.Client.close c) (fun () -> k c)

let print_payload (resp : Lp_service.Protocol.response) =
  match resp.Lp_service.Protocol.payload with
  | Ok payload ->
      print_endline (Lp_json.to_string payload);
      0
  | Error (code, message) ->
      Printf.eprintf "error [%s]: %s\n" code message;
      1

let client_run_cmd =
  let doc = "Ask the daemon to run the flow (same payload as run --json)." in
  let stream_arg =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Stream per-stage progress: the daemon interleaves one \
             {\"event\":\"stage\",...} JSON line per completed flow stage \
             before the result (printed as they arrive), and the run \
             payloads carry a trailing \"stages\" object.")
  in
  let run socket tcp names f n_max jobs optimize unroll peephole platform
      stream =
    let names =
      match names with [] -> Lp_apps.Apps.names | names -> names
    in
    let options =
      {
        Lp_service.Protocol.no_options with
        Lp_service.Protocol.f = Some f;
        n_max = Some n_max;
        jobs = Some jobs;
        peephole = Some peephole;
        platform;
        optimize = Some optimize;
        unroll = Some unroll;
      }
    in
    with_client socket tcp (fun c ->
        (* One request per app over one connection; the concatenation
           reproduces Export.results_json byte for byte. *)
        let payloads =
          List.map
            (fun app ->
              let resp =
                Lp_service.Client.rpc_stream c
                  ~on_event:(fun ev -> print_endline (Lp_json.to_string ev))
                  (Lp_service.Protocol.Run { app; options; stream })
              in
              match resp.Lp_service.Protocol.payload with
              | Ok payload -> Lp_json.to_string payload
              | Error (code, message) ->
                  Printf.eprintf "error [%s]: %s\n" code message;
                  exit 1)
            names
        in
        print_endline ("[" ^ String.concat "," payloads ^ "]");
        exit 0)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ socket_arg $ tcp_arg $ apps_arg $ f_arg $ nmax_arg
      $ jobs_arg $ optimize_arg $ unroll_arg $ peephole_arg
      $ platform_spec_arg $ stream_arg)

let client_simulate_cmd =
  let doc = "Ask the daemon to simulate the unpartitioned design." in
  let run socket tcp app platform =
    with_client socket tcp (fun c ->
        exit
          (print_payload
             (Lp_service.Client.rpc c
                (Lp_service.Protocol.Simulate
                   {
                     app;
                     options =
                       { Lp_service.Protocol.no_options with platform };
                   }))))
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(const run $ socket_arg $ tcp_arg $ app_pos $ platform_spec_arg)

let client_explore_cmd =
  let doc =
    "Ask the daemon to explore the design space (same payload as one \
     element of explore --json)."
  in
  let run socket tcp app strategy seed fvs nvs cvs vvs pvs =
    let explore =
      {
        Lp_service.Protocol.strategy = Some (E.Strategy.name strategy);
        seed = Some seed;
        f_values = fvs;
        n_max_values = nvs;
        max_cells_values = cvs;
        vdd_values = vvs;
        platform_values = pvs;
      }
    in
    with_client socket tcp (fun c ->
        exit
          (print_payload
             (Lp_service.Client.rpc c
                (Lp_service.Protocol.Explore
                   {
                     app;
                     options = Lp_service.Protocol.no_options;
                     explore;
                   }))))
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const run $ socket_arg $ tcp_arg $ app_pos $ strategy_arg $ seed_arg
      $ f_values_arg $ n_max_values_arg $ max_cells_values_arg
      $ vdd_values_arg $ platform_values_arg)

let client_plain_cmd name doc request =
  let run socket tcp =
    with_client socket tcp (fun c ->
        exit (print_payload (Lp_service.Client.rpc c request)))
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ socket_arg $ tcp_arg)

let client_cmd =
  let doc = "Talk to a running lowpart daemon." in
  Cmd.group (Cmd.info "client" ~doc)
    [
      client_run_cmd;
      client_simulate_cmd;
      client_explore_cmd;
      client_plain_cmd "list" "List the daemon's applications."
        Lp_service.Protocol.List_apps;
      client_plain_cmd "stats"
        "Server counters and candidate-cache statistics."
        Lp_service.Protocol.Stats;
      client_plain_cmd "metrics"
        "Scrape-ready metrics: outcomes, latency histogram with \
         percentiles, queue high-water, per-stage totals, memo hit \
         rates."
        Lp_service.Protocol.Metrics;
      client_plain_cmd "shutdown" "Stop the daemon gracefully."
        Lp_service.Protocol.Shutdown;
    ]

let main_cmd =
  let doc = "low-power hardware/software partitioning for core-based systems" in
  Cmd.group
    (Cmd.info "lowpart" ~version:"1.0.0" ~doc)
    [
      list_cmd;
      run_cmd;
      simulate_cmd;
      dump_cmd;
      synth_cmd;
      graph_cmd;
      file_cmd;
      explore_cmd;
      serve_cmd;
      client_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
