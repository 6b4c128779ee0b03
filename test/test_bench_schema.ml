(* Shape check of the committed BENCH_flow.json, which
   `bench/main.exe flow` writes: per real workload, the per-stage times
   of one memo-cold [Flow.run] on one domain, with the workload's
   identity. The workloads are the six paper apps and the non-stress
   entries of bench/corpus.json, in that order. *)

module Json = Lp_json
module Corpus = Lp_bench.Corpus

(* Under `dune runtest` the cwd is the test directory and the dune deps
   sit one level up; when run from the project root, they are right
   there. *)
let path file =
  if Sys.file_exists (Filename.concat ".." file) then Filename.concat ".." file
  else file

let field_of kind j name to_opt =
  match Option.bind (Json.member name j) to_opt with
  | Some v -> v
  | None -> Alcotest.failf "missing or mistyped %s field %S" kind name

let str j name = field_of "string" j name Json.to_string_opt
let num j name = field_of "number" j name Json.to_float_opt
let int_ j name = field_of "int" j name Json.to_int_opt
let arr j name = field_of "array" j name Json.to_list_opt

let test_schema () =
  let doc =
    match
      Json.parse
        (In_channel.with_open_bin (path "BENCH_flow.json") In_channel.input_all)
    with
    | Ok v -> v
    | Error e -> Alcotest.failf "BENCH_flow.json does not parse: %s" e
  in
  Alcotest.(check string) "schema tag" "lowpart-bench-flow/2" (str doc "schema");
  Alcotest.(check int) "one domain" 1 (int_ doc "jobs");
  Alcotest.(check bool) "nproc >= 1" true (int_ doc "nproc" >= 1);
  Alcotest.(check bool) "runs >= 1" true (int_ doc "runs" >= 1);
  let corpus =
    match Corpus.load (path "bench/corpus.json") with
    | Ok es ->
        List.filter (fun (e : Corpus.entry) -> e.Corpus.class_name <> "stress") es
    | Error msg -> Alcotest.failf "bench/corpus.json: %s" msg
  in
  let workloads = arr doc "workloads" in
  Alcotest.(check (list string))
    "the paper apps, then the non-stress corpus"
    (Lp_apps.Apps.names @ List.map (fun (e : Corpus.entry) -> e.Corpus.spec) corpus)
    (List.map (fun w -> str w "spec") workloads);
  List.iter
    (fun w ->
      let spec = str w "spec" in
      let fingerprint = str w "fingerprint" in
      Alcotest.(check bool) (spec ^ " fingerprint is a digest") true
        (String.length fingerprint = 32);
      (match List.find_opt (fun (e : Corpus.entry) -> e.Corpus.spec = spec) corpus with
      | Some e ->
          Alcotest.(check string) (spec ^ " fingerprint") e.Corpus.fingerprint
            fingerprint
      | None -> ());
      let stages =
        match Json.member "stages" w with
        | Some (Json.Assoc kvs) -> kvs
        | _ -> Alcotest.failf "%s: stages is not an object" spec
      in
      Alcotest.(check (list string)) (spec ^ " stages in pipeline order")
        (List.map Lp_core.Flow.stage_name Lp_core.Flow.all_stages)
        (List.map fst stages);
      let sum =
        List.fold_left
          (fun acc (k, v) ->
            match Json.to_float_opt v with
            | Some ms when ms >= 0.0 -> acc +. ms
            | _ -> Alcotest.failf "%s: stage %s is not a time >= 0" spec k)
          0.0 stages
      in
      let total = num w "total_ms" in
      Alcotest.(check bool) (spec ^ " total_ms > 0") true (total > 0.0);
      (* Stage times are rounded to the microsecond. *)
      Alcotest.(check (float 0.01)) (spec ^ " total is the stage sum") total sum)
    workloads

let () =
  Alcotest.run "bench_schema"
    [
      ( "bench-flow-json",
        [ Alcotest.test_case "committed file matches schema" `Quick test_schema ]
      );
    ]
