(* Timing gates on the flow, one named bound each. A time bound is 4x
   the figure last recorded for its workload, so it catches a real
   regression without tripping on a slower host; a speedup is the ratio
   of two runs taken side by side in this process. perfbench measures
   the same layers on the full workloads (BENCHMARK.json). *)

module Flow = Lp_core.Flow
module Memo = Lp_core.Memo
module System = Lp_system.System
module Apps = Lp_apps.Apps
module Gen = Lp_gen.Gen

(* digs16 [System.run], median of 9: 4 x 0.710 ms. *)
let system_sim_ms = 2.84

(* digs16 memo-cold [Flow.run] with jobs = 1, median of 9: 4 x 3.357 ms. *)
let full_flow_seq_ms = 13.4

(* Six-app cold pass time over memo-warm pass time. *)
let memo_warm_speedup = 0.8

(* Pool speedup on the two corpus tasks below: the pool must win when
   there are domains to fan out to; with one it only must not collapse
   (0.6 x the committed 1.004). *)
let corpus_pool_speedup ~jobs = if jobs > 1 then 1.0 else 0.61

(* Sequential + pooled flow time of the two corpus tasks: 4 x their
   257.2 ms share of the committed corpus figure. *)
let corpus_flow_ms = 1028.0

(* The pool gate times each task over a window this long: on a shared
   2-vCPU host the pooled flow has phases of a few seconds in which it
   runs at about 0.6x the sequential one, with one vCPU idle. *)
let pool_window_s = 3.0

let seq_options = { Flow.default_options with Flow.jobs = 1 }
let digs16 = Lp_apps.Digs.program ~width:16 ()

let wall f =
  let t0 = Unix.gettimeofday () in
  ignore (f ());
  Unix.gettimeofday () -. t0

let ms s = 1e3 *. s

(* Median of [reps] timed calls after one warm-up call, in ms. *)
let median_ms ?(reps = 9) f =
  ignore (f ());
  let samples = List.init reps (fun _ -> wall f) |> List.sort compare in
  ms (List.nth samples (reps / 2))

(* The best timings of [f] and [g] over interleaved rounds: at least
   [rounds] of them, and more until [window_s] seconds have passed. *)
let best_of ?(rounds = 3) ?(window_s = 0.0) f g =
  let t0 = Unix.gettimeofday () in
  let rec go n bf bg =
    if n >= rounds && Unix.gettimeofday () -. t0 >= window_s then (bf, bg)
    else
      let bf = Float.min bf (wall f) in
      go (n + 1) bf (Float.min bg (wall g))
  in
  go 0 infinity infinity

let at_most what bound v =
  Printf.printf "%s: %.3f (at most %.3f)\n" what v bound;
  if v > bound then Alcotest.failf "%s: %.3f exceeds %.3f" what v bound

let at_least what bound v =
  Printf.printf "%s: %.3f (at least %.3f)\n" what v bound;
  if v < bound then Alcotest.failf "%s: %.3f is below %.3f" what v bound

let test_system_sim () =
  at_most "digs16 System.run (ms)" system_sim_ms
    (median_ms (fun () -> System.run digs16))

let test_full_flow_seq () =
  at_most "digs16 memo-cold Flow.run, jobs = 1 (ms)" full_flow_seq_ms
    (median_ms (fun () ->
         Memo.reset ();
         Flow.run ~options:seq_options ~name:"digs16" digs16));
  Memo.reset ()

let test_memo_warm () =
  let programs = List.map (fun (e : Apps.entry) -> (e.name, e.build ())) Apps.all in
  let pass () =
    List.iter
      (fun (name, p) -> ignore (Flow.run ~options:seq_options ~name p))
      programs
  in
  let cold, warm =
    best_of
      (fun () ->
        Memo.reset ();
        pass ())
      pass
  in
  Memo.reset ();
  at_least
    (Printf.sprintf "six-app memo-warm speedup (cold %.1f ms, warm %.1f ms)"
       (ms cold) (ms warm))
    memo_warm_speedup (cold /. warm)

(* A memo-warm flow takes its initial report from the memo: the initial
   tier counts a hit and no miss, and the report is the very value the
   cold run stored, which a fresh [System.run] could not return. *)
let test_initial_is_lookup () =
  Memo.reset ();
  let r1 = Flow.run ~options:seq_options ~name:"digs16" digs16 in
  let before = Memo.initial_stats () in
  let r2 = Flow.run ~options:seq_options ~name:"digs16" digs16 in
  let after = Memo.initial_stats () in
  Memo.reset ();
  Alcotest.(check int) "one initial hit" (before.Memo.initial_hits + 1)
    after.Memo.initial_hits;
  Alcotest.(check int) "no initial miss" before.Memo.initial_misses
    after.Memo.initial_misses;
  Alcotest.(check bool) "the stored report is returned" true
    (r1.Flow.initial == r2.Flow.initial)

(* gen:paper:1 and gen:deep:1 with n_max = clusters fan out 40 and 64
   pairs, above the pool threshold: memo-cold jobs = 1 against
   [Flow.default_jobs]. *)
let test_corpus_pool () =
  let jobs = Flow.default_jobs in
  let seq_s, par_s =
    List.fold_left
      (fun (seq_s, par_s) name ->
        let spec, seed = Result.get_ok (Gen.parse_name name) in
        let program = Gen.generate spec ~seed in
        let run jobs () =
          Memo.reset ();
          let options =
            { Flow.default_options with Flow.jobs; n_max = spec.Gen.clusters }
          in
          Flow.run ~options ~name program
        in
        let s, p = best_of ~window_s:pool_window_s (run 1) (run jobs) in
        (seq_s +. s, par_s +. p))
      (0.0, 0.0)
      [ "gen:paper:1"; "gen:deep:1" ]
  in
  Memo.reset ();
  let speedup = seq_s /. par_s in
  let floor = corpus_pool_speedup ~jobs in
  let what =
    Printf.sprintf "corpus pool speedup at jobs = %d (seq %.1f ms, pool %.1f ms)"
      jobs (ms seq_s) (ms par_s)
  in
  if jobs > 1 && speedup <= floor then
    Alcotest.failf "%s: %.3f is not above %.1f" what speedup floor;
  at_least what floor speedup;
  at_most "corpus flow time, sequential + pooled (ms)" corpus_flow_ms
    (ms (seq_s +. par_s))

let () =
  Alcotest.run "perf_gates"
    [
      ( "gates",
        [
          Alcotest.test_case "system sim" `Quick test_system_sim;
          Alcotest.test_case "full flow sequential" `Quick test_full_flow_seq;
          Alcotest.test_case "memo-warm speedup" `Quick test_memo_warm;
          Alcotest.test_case "memo-warm initial is a lookup" `Quick
            test_initial_is_lookup;
          Alcotest.test_case "corpus pool speedup" `Quick test_corpus_pool;
        ] );
    ]
