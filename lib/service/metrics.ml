(* Scrape-ready counters for the service: requests by outcome, a
   log-spaced latency histogram with summary percentiles, and the
   admission-queue high-water mark. One [t] per daemon. *)

module J = Lp_json

(* Upper bucket bounds in milliseconds; latencies above the last bound
   land in the overflow bucket and report as [max_ms]. Log-spaced so
   one table spans memo-warm sub-millisecond runs and multi-second
   explorations. *)
let bucket_bounds_ms =
  [| 0.5; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000.;
     10000.; 30000. |]

let n_buckets = Array.length bucket_bounds_ms + 1 (* + overflow *)

type t = {
  m : Mutex.t;
  outcomes : (string, int) Hashtbl.t;  (* "ok" or a protocol error code *)
  buckets : int array;  (* length [n_buckets] *)
  mutable count : int;
  mutable sum_ms : float;
  mutable max_ms : float;
  mutable queue_hwm : int;
}

let create () =
  let outcomes = Hashtbl.create 8 in
  Hashtbl.replace outcomes "ok" 0;
  {
    m = Mutex.create ();
    outcomes;
    buckets = Array.make n_buckets 0;
    count = 0;
    sum_ms = 0.0;
    max_ms = 0.0;
    queue_hwm = 0;
  }

let record_outcome t code =
  Mutex.protect t.m (fun () ->
      Hashtbl.replace t.outcomes code
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.outcomes code)))

let bucket_of ms =
  let rec go i =
    if i >= Array.length bucket_bounds_ms then i
    else if ms <= bucket_bounds_ms.(i) then i
    else go (i + 1)
  in
  go 0

let record_latency_ms t ms =
  Mutex.protect t.m (fun () ->
      t.buckets.(bucket_of ms) <- t.buckets.(bucket_of ms) + 1;
      t.count <- t.count + 1;
      t.sum_ms <- t.sum_ms +. ms;
      if ms > t.max_ms then t.max_ms <- ms)

let observe_queue t depth =
  Mutex.protect t.m (fun () ->
      if depth > t.queue_hwm then t.queue_hwm <- depth)

(* Percentile from bucket counts: the upper bound of the bucket where
   the cumulative count crosses [q]; the overflow bucket reports the
   maximum seen. Coarse by construction (bucket resolution), which is
   the honest precision of a histogram scrape. *)
let percentile_of_counts ~counts ~max_ms ~total q =
  if total = 0 then 0.0
  else begin
    let target =
      max 1 (int_of_float (Float.round (q *. float_of_int total +. 0.5)))
    in
    let target = min target total in
    let acc = ref 0 and result = ref max_ms in
    (try
       Array.iteri
         (fun i n ->
           acc := !acc + n;
           if !acc >= target then begin
             result :=
               (if i < Array.length bucket_bounds_ms then bucket_bounds_ms.(i)
                else max_ms);
             raise Exit
           end)
         counts
     with Exit -> ());
    !result
  end

let outcomes_json t =
  Mutex.protect t.m (fun () ->
      let entries = Hashtbl.fold (fun k v acc -> (k, J.Int v) :: acc) t.outcomes [] in
      J.Assoc (List.sort (fun (a, _) (b, _) -> String.compare a b) entries))

let queue_json t ~depth ~bound =
  let hwm = Mutex.protect t.m (fun () -> t.queue_hwm) in
  J.Assoc
    [
      ("depth", J.Int depth);
      ("high_water", J.Int (max hwm depth));
      ("bound", J.Int bound);
    ]

let latency_json t =
  let counts, max_ms, total, sum_ms =
    Mutex.protect t.m (fun () ->
        (Array.copy t.buckets, t.max_ms, t.count, t.sum_ms))
  in
  let p q = percentile_of_counts ~counts ~max_ms ~total q in
  J.Assoc
    [
      ( "buckets_ms",
        J.List (Array.to_list (Array.map (fun b -> J.Float b) bucket_bounds_ms))
      );
      ("counts", J.List (Array.to_list (Array.map (fun n -> J.Int n) counts)));
      ("count", J.Int total);
      ("sum_ms", J.Float sum_ms);
      ("max_ms", J.Float max_ms);
      ("p50_ms", J.Float (p 0.50));
      ("p95_ms", J.Float (p 0.95));
      ("p99_ms", J.Float (p 0.99));
    ]
