module Cluster = Lp_cluster.Cluster
module Ast = Lp_ir.Ast
module System = Lp_system.System
module Cache = Lp_cache.Cache
module Platform = Lp_tech.Platform

(* --- structural fingerprint ------------------------------------- *)

(* The serialization writes one tagged token per AST node plus, for
   every statement, its profiled execution count. Absolute sids are
   deliberately omitted: they only matter through the profile values,
   which are emitted in traversal (= positional) order. *)

let add_int buf n =
  Buffer.add_char buf 'i';
  Buffer.add_string buf (string_of_int n);
  Buffer.add_char buf ';'

let add_str buf s =
  Buffer.add_char buf 's';
  add_int buf (String.length s);
  Buffer.add_string buf s

let rec add_expr buf (e : Ast.expr) =
  match e with
  | Ast.Int n ->
      Buffer.add_char buf 'I';
      add_int buf n
  | Ast.Var v ->
      Buffer.add_char buf 'V';
      add_str buf v
  | Ast.Load (a, i) ->
      Buffer.add_char buf 'L';
      add_str buf a;
      add_expr buf i
  | Ast.Binop (op, l, r) ->
      Buffer.add_char buf 'B';
      add_str buf (Ast.binop_to_string op);
      add_expr buf l;
      add_expr buf r
  | Ast.Unop (op, e) ->
      Buffer.add_char buf 'U';
      add_str buf (Ast.unop_to_string op);
      add_expr buf e
  | Ast.Call (f, args) ->
      Buffer.add_char buf 'C';
      add_str buf f;
      add_int buf (List.length args);
      List.iter (add_expr buf) args

let ex_times profile sid =
  if sid >= 0 && sid < Array.length profile then profile.(sid) else 0

let rec add_stmt buf ~profile (s : Ast.stmt) =
  add_int buf (ex_times profile s.Ast.sid);
  match s.Ast.node with
  | Ast.Assign (v, e) ->
      Buffer.add_char buf 'a';
      add_str buf v;
      add_expr buf e
  | Ast.Store (a, i, v) ->
      Buffer.add_char buf 't';
      add_str buf a;
      add_expr buf i;
      add_expr buf v
  | Ast.If (c, th, el) ->
      Buffer.add_char buf 'f';
      add_expr buf c;
      add_stmts buf ~profile th;
      add_stmts buf ~profile el
  | Ast.While (c, body) ->
      Buffer.add_char buf 'w';
      add_expr buf c;
      add_stmts buf ~profile body
  | Ast.For (v, lo, hi, body) ->
      Buffer.add_char buf 'o';
      add_str buf v;
      add_expr buf lo;
      add_expr buf hi;
      add_stmts buf ~profile body
  | Ast.Print e ->
      Buffer.add_char buf 'p';
      add_expr buf e
  | Ast.Return None -> Buffer.add_char buf 'r'
  | Ast.Return (Some e) ->
      Buffer.add_char buf 'R';
      add_expr buf e
  | Ast.Expr e ->
      Buffer.add_char buf 'e';
      add_expr buf e

and add_stmts buf ~profile stmts =
  add_int buf (List.length stmts);
  List.iter (add_stmt buf ~profile) stmts

let add_scheduler buf (s : Candidate.scheduler) =
  match s with
  | Candidate.List_sched -> Buffer.add_string buf "list"
  | Candidate.Fds stretch ->
      Buffer.add_string buf "fds:";
      Buffer.add_string buf (Printf.sprintf "%h" stretch)

let add_float buf x =
  Buffer.add_char buf 'h';
  Buffer.add_string buf (Printf.sprintf "%h" x);
  Buffer.add_char buf ';'

(* Platform serialization policy: the block is appended to a key ONLY
   when the platform differs from sparclite (structurally, including
   the name). Keys minted before platforms existed were implicitly
   sparclite keys, so the identity platform must serialize to nothing —
   that is what keeps every pre-platform on-disk cache entry (and the
   golden fingerprint pins) valid, while any other platform yields a
   digest no sparclite run can collide with. *)
let add_platform buf (p : Platform.t) =
  Buffer.add_string buf "platform/1;";
  add_str buf p.Platform.name;
  add_float buf p.Platform.core_vdd_v;
  add_float buf p.Platform.clock_mhz;
  add_float buf p.Platform.peak_clock_mhz;
  let add_geom (g : Platform.cache_geom) =
    add_int buf g.Platform.geom_size_bytes;
    add_int buf g.Platform.geom_line_bytes;
    add_int buf g.Platform.geom_assoc;
    add_int buf (if g.Platform.geom_write_through then 1 else 0)
  in
  add_geom p.Platform.icache;
  add_geom p.Platform.dcache;
  add_int buf p.Platform.mem_first_word_latency;
  add_float buf p.Platform.mem_access_energy_j;
  add_float buf p.Platform.mem_standby_power_w

let add_platform_unless_default buf p =
  if not (Platform.equal p Platform.sparclite) then add_platform buf p

let fingerprint ?(platform = Platform.sparclite) ~scheduler ~profile
    (cluster : Cluster.t) rset =
  let buf = Buffer.create 512 in
  add_platform_unless_default buf platform;
  add_scheduler buf scheduler;
  List.iter
    (fun (kind, count) ->
      add_str buf (Lp_tech.Resource.kind_to_string kind);
      add_int buf count)
    (Lp_tech.Resource_set.bindings rset);
  add_stmts buf ~profile cluster.Cluster.stmts;
  Digest.string (Buffer.contents buf)

(* Fingerprint of the initial ("I") system simulation: the whole program
   — entry, every array with its init image, every function — plus every
   [System.config] field that can change the report. The leading tag
   keeps the keyspace disjoint from candidate fingerprints, so the two
   kinds of entry can share the persistent directory. Statements are
   serialized with an empty profile (the initial run does not depend on
   one). *)
let add_cache_config buf (c : Cache.config) =
  add_int buf c.Cache.size_bytes;
  add_int buf c.Cache.line_bytes;
  add_int buf c.Cache.assoc;
  add_int buf
    (match c.Cache.policy with Cache.Write_back -> 0 | Cache.Write_through -> 1)

let initial_fingerprint ~(config : System.config) (p : Ast.program) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "initial-report/1;";
  add_cache_config buf config.System.icache;
  add_cache_config buf config.System.dcache;
  add_int buf config.System.fuel;
  add_int buf config.System.buffer_capacity_words;
  add_int buf config.System.asic_word_cycles;
  add_int buf (if config.System.peephole then 1 else 0);
  (* Empty at sparclite — see [add_platform_unless_default]: digests
     minted before platforms existed stay valid. *)
  add_platform_unless_default buf config.System.platform;
  add_str buf p.Ast.entry;
  add_int buf (List.length p.Ast.arrays);
  List.iter
    (fun (a : Ast.array_decl) ->
      add_str buf a.Ast.aname;
      add_int buf a.Ast.size;
      match a.Ast.init with
      | None -> add_int buf (-1)
      | Some img ->
          add_int buf (Array.length img);
          Array.iter (add_int buf) img)
    p.Ast.arrays;
  add_int buf (List.length p.Ast.funcs);
  List.iter
    (fun (f : Ast.func) ->
      add_str buf f.Ast.fname;
      add_int buf (List.length f.Ast.params);
      List.iter (add_str buf) f.Ast.params;
      add_int buf (List.length f.Ast.locals);
      List.iter (add_str buf) f.Ast.locals;
      add_stmts buf ~profile:[||] f.Ast.body)
    p.Ast.funcs;
  Digest.string (Buffer.contents buf)

(* --- the cache --------------------------------------------------- *)

(* Both kinds of entry live in one ['a tier]: an in-memory table in
   front of an optional on-disk {!Store}, with its own counters. The
   candidate and initial-report tiers are kept apart because candidate
   hit/miss statistics are asserted exactly by callers and tests, and an
   initial-simulation probe must not perturb them. Keys are digests of
   tag-prefixed serializations, so the two tiers can share one disk
   directory without ever naming the same file. *)

type 'a tier = {
  table : (string, 'a) Hashtbl.t;
  mutable disk : 'a Store.t option;
  mutable hits : int;
  mutable misses : int;
  mutable disk_hits : int;
}

let new_tier n =
  { table = Hashtbl.create n; disk = None; hits = 0; misses = 0; disk_hits = 0 }

let candidates : Candidate.t option tier = new_tier 256
let initials : System.report tier = new_tier 16
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

type stats = { hits : int; misses : int; entries : int; disk_hits : int }

type initial_stats = {
  initial_hits : int;
  initial_misses : int;
  initial_entries : int;
  initial_disk_hits : int;
}

let stats () =
  locked (fun () ->
      {
        hits = candidates.hits;
        misses = candidates.misses;
        entries = Hashtbl.length candidates.table;
        disk_hits = candidates.disk_hits;
      })

let initial_stats () =
  locked (fun () ->
      {
        initial_hits = initials.hits;
        initial_misses = initials.misses;
        initial_entries = Hashtbl.length initials.table;
        initial_disk_hits = initials.disk_hits;
      })

let hit_rate () =
  let s = stats () in
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let reset_tier t =
  Hashtbl.reset t.table;
  t.hits <- 0;
  t.misses <- 0;
  t.disk_hits <- 0

let reset () =
  locked (fun () ->
      reset_tier candidates;
      reset_tier initials)

(* Memory, then disk (outside the lock — disk reads must not serialise
   the other workers); a disk hit is promoted to memory. *)
let find t key =
  let cached, disk =
    locked (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some _ as v ->
            t.hits <- t.hits + 1;
            (v, None)
        | None -> (None, t.disk))
  in
  match cached with
  | Some _ -> cached
  | None -> (
      match Option.bind disk (fun s -> Store.find s key) with
      | Some v as found ->
          locked (fun () ->
              Hashtbl.replace t.table key v;
              t.hits <- t.hits + 1;
              t.disk_hits <- t.disk_hits + 1);
          found
      | None ->
          locked (fun () -> t.misses <- t.misses + 1);
          None)

let add t key v =
  let disk =
    locked (fun () ->
        Hashtbl.replace t.table key v;
        t.disk)
  in
  Option.iter (fun s -> Store.add s key v) disk

(* --- persistence -------------------------------------------------- *)

(* v2: entries gained a payload checksum (see {!Store}). *)
let format_version = 2

let set_persist_dir dir =
  let open_store root =
    Store.create ~name:"memo" ~version:format_version ~suffix:".memo" root
  in
  let c = Option.map open_store dir and i = Option.map open_store dir in
  locked (fun () ->
      candidates.disk <- c;
      initials.disk <- i)

let persist_dir () = locked (fun () -> Option.map Store.root candidates.disk)

let disk_entries () =
  match locked (fun () -> candidates.disk) with
  | None -> 0
  | Some s -> Store.entries s

(* Candidates are cached with [e_trans_j] normalised to zero — the
   transfer energy is not part of the key (it does not influence the
   schedule, binding or netlist) and is re-stamped per caller. So is the
   cluster: the key is structural, so a hit may have been evaluated for
   another cluster with the same statements and profile (in another
   program, or elsewhere in this one) whose chain position and statement
   ids differ. The evaluation itself runs outside the lock so parallel
   workers only serialise on the table probe. *)
let evaluate ?(platform = Platform.sparclite)
    ?(scheduler = Candidate.List_sched) ~profile ~e_trans_j cluster rset =
  let key = fingerprint ~platform ~scheduler ~profile cluster rset in
  match find candidates key with
  | Some v -> Option.map (fun c -> { c with Candidate.cluster; e_trans_j }) v
  | None ->
      let v = Candidate.evaluate ~scheduler ~profile ~e_trans_j cluster rset in
      add candidates key
        (Option.map (fun c -> { c with Candidate.e_trans_j = 0.0 }) v);
      v

(* Unlike [evaluate], probing and storing are split: the flow wants to
   overlap the (expensive) initial simulation with profiling and
   pre-selection when the probe misses, so it owns the computation. *)
let find_initial key = find initials key
let store_initial key r = add initials key r
