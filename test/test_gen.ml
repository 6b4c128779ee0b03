(* The generator's two contracts (DESIGN.md §14):

   validity — every [(class, seed)] emits a program the full flow can
   take end to end, including the Verify stage (the flow runs with
   [verify_outputs] on by default and fails loudly when the
   partitioned system diverges from the reference, so a completed
   [Flow.run] IS the property);

   determinism — [(class, seed)] is the whole identity of a workload:
   two independent generator invocations (stand-ins for two processes)
   produce byte-identical fingerprints, the flow's Memo program
   fingerprint agrees, and [-j] does not change partitioning results.

   Two corpus fingerprints are additionally golden-pinned here,
   independently of bench/corpus.json: if the generator's stream ever
   shifts, this test names the contract being broken even when someone
   "helpfully" regenerates the manifest in the same change.

   The tracked manifest itself (bench/corpus.json) is re-verified entry
   by entry, and its JSON form round-trips. *)

module Gen = Lp_gen.Gen
module Flow = Lp_core.Flow
module Memo = Lp_core.Memo
module Corpus = Lp_bench.Corpus

let paper = Option.get (Gen.find_class "paper")

let flow_options spec =
  (* n_max = clusters: pre-selection keeps everything, so Verify covers
     whatever the objective actually selects, not a truncated chain. *)
  { Flow.default_options with Flow.n_max = spec.Gen.clusters }

(* --- validity ----------------------------------------------------- *)

let qcheck_verify =
  QCheck.Test.make ~count:8 ~name:"generated programs survive flow Verify"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let program = Gen.generate paper ~seed in
      Lp_ir.Validate.check program;
      let r =
        Flow.run ~options:(flow_options paper)
          ~name:(Gen.name paper ~seed)
          program
      in
      (* Verify ran: both reports exist and the saving is a ratio. *)
      Float.is_finite r.Flow.energy_saving
      && r.Flow.energy_saving < 1.0
      && Lp_system.System.total_energy_j r.Flow.initial > 0.0)

let every_class_generates () =
  List.iter
    (fun spec ->
      let p = Gen.generate spec ~seed:1 in
      Lp_ir.Validate.check p;
      Alcotest.(check bool)
        (spec.Gen.class_name ^ " has statements")
        true
        (Lp_ir.Ast.stmt_count p > 0))
    Gen.classes

(* --- determinism -------------------------------------------------- *)

let n_classes = List.length Gen.classes

let qcheck_deterministic =
  QCheck.Test.make ~count:16
    ~name:"two generator instances agree on (class, seed)"
    QCheck.(pair (int_bound 1_000_000) (int_bound (n_classes - 1)))
    (fun (seed, class_ix) ->
      let spec = List.nth Gen.classes class_ix in
      (* [stress] generation is ~1 s; pinning it once in the corpus is
         enough — property rounds stick to the flow-sized classes. *)
      let spec = if spec.Gen.class_name = "stress" then paper else spec in
      let a = Gen.generate spec ~seed in
      let b = Gen.generate spec ~seed in
      String.equal (Gen.fingerprint a) (Gen.fingerprint b)
      && String.equal
           (Memo.initial_fingerprint
              ~config:Lp_system.System.default_config a)
           (Memo.initial_fingerprint
              ~config:Lp_system.System.default_config b))

(* The paper apps fan out at most 20 (cluster x resource set) pairs,
   below [Flow.pool_threshold], so only generated workloads reach the
   pool path with default options. With n_max = clusters, gen:paper
   fans out 40 pairs and gen:deep 64; any -j must partition exactly as
   -j 1 does. *)
let jobs_levels_agree () =
  List.iter
    (fun (name, jobs) ->
      let spec, seed = Result.get_ok (Gen.parse_name name) in
      let program = Gen.generate spec ~seed in
      let options = flow_options spec in
      let run jobs =
        Memo.reset ();
        Flow.run ~options:{ options with Flow.jobs } ~name program
      in
      let r1 = run 1 and rj = run jobs in
      let what fmt = Printf.sprintf ("%s -j %d: " ^^ fmt) name jobs in
      let pairs =
        List.length r1.Flow.preselected
        * List.length options.Flow.resource_sets
      in
      Alcotest.(check bool)
        (what "%d pairs reach the pool threshold" pairs)
        true
        (pairs >= Flow.pool_threshold);
      let cids (r : Flow.result) =
        List.map
          (fun s ->
            s.Flow.candidate.Lp_core.Candidate.cluster.Lp_cluster.Cluster.cid)
          r.Flow.selected
      in
      Alcotest.(check (list int)) (what "selected cids") (cids r1) (cids rj);
      Alcotest.(check int) (what "cells") r1.Flow.total_cells
        rj.Flow.total_cells;
      Alcotest.(check (float 0.0))
        (what "energy saving") r1.Flow.energy_saving rj.Flow.energy_saving;
      Alcotest.(check (float 0.0))
        (what "time change") r1.Flow.time_change rj.Flow.time_change;
      Alcotest.(check string)
        (what "Memo program fingerprint independent of jobs")
        (Memo.initial_fingerprint ~config:Lp_system.System.default_config
           r1.Flow.program)
        (Memo.initial_fingerprint ~config:Lp_system.System.default_config
           rj.Flow.program))
    [ ("gen:paper:7", 4); ("gen:paper:1", 2); ("gen:deep:1", 2) ];
  Memo.reset ()

(* --- golden pins -------------------------------------------------- *)

let golden_pins () =
  List.iter
    (fun (cls, seed, expect) ->
      let spec = Option.get (Gen.find_class cls) in
      Alcotest.(check string)
        (Printf.sprintf "gen:%s:%d fingerprint pinned" cls seed)
        expect
        (Gen.fingerprint (Gen.generate spec ~seed)))
    [
      ("paper", 1, "6585774178f80b83009006ac6c2fa92c");
      ("deep", 1, "7cd424d883ddc689d78e21f7b6e00a91");
    ]

(* --- the tracked corpus --------------------------------------------- *)

(* Under [dune runtest] the cwd is the test directory and the dune dep
   puts the manifest in ../bench. *)
let corpus_verifies () =
  let path =
    if Sys.file_exists "../bench/corpus.json" then "../bench/corpus.json"
    else "bench/corpus.json"
  in
  match Corpus.load path with
  | Error msg -> Alcotest.failf "%s: %s" path msg
  | Ok entries ->
      Alcotest.(check int) "one entry per tracked pair"
        (List.length Corpus.default_pairs)
        (List.length entries);
      Alcotest.(check (list string))
        "regenerated entries match the manifest (after a deliberate \
         generator change: bench/main.exe corpus --write)"
        [] (Corpus.verify entries)

let corpus_roundtrip () =
  let e =
    {
      Corpus.spec = "gen:paper:1";
      class_name = "paper";
      seed = 1;
      fingerprint = "deadbeef";
      stmts = 81;
      trace_instrs = 39031;
    }
  in
  (match
     Corpus.of_json
       (Corpus.manifest_json [ e; { e with seed = 2; spec = "gen:paper:2" } ])
   with
  | Ok [ a; b ] ->
      Alcotest.(check string) "spec" "gen:paper:1" a.Corpus.spec;
      Alcotest.(check string) "fingerprint" "deadbeef" a.Corpus.fingerprint;
      Alcotest.(check int) "trace" 39031 a.Corpus.trace_instrs;
      Alcotest.(check int) "seed 2" 2 b.Corpus.seed
  | Ok _ -> Alcotest.fail "wrong entry count"
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg);
  let rejects doc what =
    match Result.bind (Lp_json.parse doc) Corpus.of_json with
    | Ok _ -> Alcotest.failf "%s must not load" what
    | Error _ -> ()
  in
  rejects {|{"schema":"nope/9","entries":[]}|} "unknown schema";
  rejects {|{"entries":[]}|} "missing schema"

(* --- spec names --------------------------------------------------- *)

let parse_names () =
  (match Gen.parse_name "gen:paper:3" with
  | Ok (spec, 3) ->
      Alcotest.(check string) "class" "paper" spec.Gen.class_name
  | Ok _ -> Alcotest.fail "wrong seed"
  | Error e -> Alcotest.failf "gen:paper:3 should parse: %s" e);
  List.iter
    (fun bad ->
      match Gen.parse_name bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error msg ->
          Alcotest.(check bool)
            (bad ^ " error is non-empty")
            true
            (String.length msg > 0))
    [ "gen:bogus:1"; "gen:paper"; "gen:paper:x"; "gen:paper:-2"; "mpg" ];
  Alcotest.(check bool) "is_gen_name gen:..." true (Gen.is_gen_name "gen:zz");
  Alcotest.(check bool) "is_gen_name paper app" false (Gen.is_gen_name "mpg")

let resolve_routes () =
  (match Lp_apps.Apps.resolve "gen:paper:1" with
  | Ok e ->
      Alcotest.(check string) "entry name" "gen:paper:1" e.Lp_apps.Apps.name
  | Error msg -> Alcotest.failf "resolve gen:paper:1: %s" msg);
  (match Lp_apps.Apps.resolve "gen:paper:zzz" with
  | Ok _ -> Alcotest.fail "malformed seed must not resolve"
  | Error _ -> ());
  match Lp_apps.Apps.resolve "MPG" with
  | Ok e -> Alcotest.(check string) "paper app" "mpg" e.Lp_apps.Apps.name
  | Error msg -> Alcotest.failf "resolve MPG: %s" msg

let () =
  Alcotest.run "gen"
    [
      ( "validity",
        [
          QCheck_alcotest.to_alcotest qcheck_verify;
          Alcotest.test_case "every class generates valid IR" `Quick
            every_class_generates;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest qcheck_deterministic;
          Alcotest.test_case "-j levels agree" `Quick jobs_levels_agree;
          Alcotest.test_case "golden corpus fingerprints" `Quick golden_pins;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "bench/corpus.json verifies" `Quick
            corpus_verifies;
          Alcotest.test_case "manifest round-trip" `Quick corpus_roundtrip;
        ] );
      ( "names",
        [
          Alcotest.test_case "parse_name" `Quick parse_names;
          Alcotest.test_case "Apps.resolve routing" `Quick resolve_routes;
        ] );
    ]
