module J = Lp_json
module Flow = Lp_core.Flow
module Candidate = Lp_core.Candidate
module System = Lp_system.System
module Platform = Lp_tech.Platform

module Explore = Lp_explore.Explore

type run_options = {
  f : float option;
  n_max : int option;
  jobs : int option;
  asic_vdd_v : float option;
  scheduler : Candidate.scheduler option;
  max_cells : int option;
  peephole : bool option;
  platform : string option;  (** a {!Lp_tech.Platform.of_spec} spec *)
  icache_bytes : int option;
  dcache_bytes : int option;
  optimize : bool option;
  unroll : int option;
  pool_threshold : int option;
}

let no_options =
  {
    f = None;
    n_max = None;
    jobs = None;
    asic_vdd_v = None;
    scheduler = None;
    max_cells = None;
    peephole = None;
    platform = None;
    icache_bytes = None;
    dcache_bytes = None;
    optimize = None;
    unroll = None;
    pool_threshold = None;
  }

type explore_options = {
  strategy : string option;
  seed : int option;
  f_values : float list option;
  n_max_values : int list option;
  max_cells_values : int list option;
  vdd_values : float list option;
  platform_values : string list option;  (** platform specs, one axis point each *)
}

let no_explore_options =
  {
    strategy = None;
    seed = None;
    f_values = None;
    n_max_values = None;
    max_cells_values = None;
    vdd_values = None;
    platform_values = None;
  }

type request =
  | Run of { app : string; options : run_options; stream : bool }
  | Simulate of { app : string; options : run_options }
  | Explore of {
      app : string;
      options : run_options;
      explore : explore_options;
    }
  | List_apps
  | Stats
  | Metrics
  | Shutdown

let cmd_name = function
  | Run _ -> "run"
  | Simulate _ -> "simulate"
  | Explore _ -> "explore"
  | List_apps -> "list"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Shutdown -> "shutdown"

(* Override precedence (documented in the README and asserted by
   test_service): a raw request field ([icache_bytes], [dcache_bytes])
   beats the named platform's value — the platform supplies the base
   configuration, explicit knobs refine it. The one illegal combination
   is a platform {e spec} that itself carries an inline override
   ([platform: "tiny:icache=..."]) next to a raw field targeting the
   same knob: two explicit writers for one value is a contradiction,
   answered with a readable [bad_request] instead of silently letting
   one shadow the other. *)
let platform_conflicts (o : run_options) overridden =
  List.filter_map
    (fun (spec_key, raw_present, raw_name) ->
      if raw_present && List.mem spec_key overridden then
        Some (spec_key, raw_name)
      else None)
    [
      ("icache", o.icache_bytes <> None, "icache_bytes");
      ("dcache", o.dcache_bytes <> None, "dcache_bytes");
    ]

(* Daemon-side default: requests are sequential inside ([jobs = 1]) —
   the pool's parallelism is spent across concurrent requests, and a
   request that wants an inner fan-out says so explicitly. An invalid
   or conflicting [platform] surfaces as [Error] (the daemon answers
   [bad_request]). *)
let flow_options (o : run_options) =
  let d = { Flow.default_options with Flow.jobs = 1 } in
  let platform =
    match o.platform with
    | None -> Ok None
    | Some spec -> Result.map Option.some (Platform.of_spec spec)
  in
  match platform with
  | Error e -> Error ("platform: " ^ e)
  | Ok platform -> (
      let conflicts =
        match platform with
        | None -> []
        | Some (_, overridden) -> platform_conflicts o overridden
      in
      match conflicts with
      | (spec_key, raw_name) :: _ ->
          Error
            (Printf.sprintf
               "platform spec overrides %S and the request also sets %S: \
                drop one of the two (a raw field beats a plain platform \
                name, but both beating each other is ambiguous)"
               spec_key raw_name)
      | [] ->
          let base_config =
            match platform with
            | None -> d.Flow.config
            | Some (p, _) -> System.config_of_platform ~base:d.Flow.config p
          in
          let cache_cfg (base : Lp_cache.Cache.config) bytes =
            match bytes with
            | None -> base
            | Some size_bytes -> { base with Lp_cache.Cache.size_bytes }
          in
          let config =
            {
              base_config with
              System.peephole =
                Option.value o.peephole
                  ~default:d.Flow.config.System.peephole;
              icache = cache_cfg base_config.System.icache o.icache_bytes;
              dcache = cache_cfg base_config.System.dcache o.dcache_bytes;
            }
          in
          Ok
            {
              d with
              Flow.f = Option.value o.f ~default:d.Flow.f;
              n_max = Option.value o.n_max ~default:d.Flow.n_max;
              jobs = Option.value o.jobs ~default:d.Flow.jobs;
              asic_vdd_v =
                Option.value o.asic_vdd_v ~default:d.Flow.asic_vdd_v;
              scheduler = Option.value o.scheduler ~default:d.Flow.scheduler;
              max_cells = Option.value o.max_cells ~default:d.Flow.max_cells;
              pool_threshold =
                Option.value o.pool_threshold ~default:d.Flow.pool_threshold;
              config;
            })

(* The space an [explore] request walks: the [f] and [max_cells] axes
   default to the explorer's standard sweep (exactly what a local
   `lowpart explore` covers), every other axis to the request's base
   option value, so overrides like [icache_bytes] or [asic_vdd_v]
   apply to every point. [base] is the request's resolved
   [flow_options] — resolving it here too would hide a platform error
   behind a pure interface. A [platform_values] axis resolves each spec
   and keys the choice by its canonical name. *)
let explore_space ~(base : Flow.options) (eo : explore_options) =
  let d = Explore.default_space in
  let platform_choices =
    match eo.platform_values with
    | None -> Ok [ ("default", base.Flow.config.System.platform) ]
    | Some specs ->
        let rec resolve acc = function
          | [] -> Ok (List.rev acc)
          | spec :: rest -> (
              match Platform.of_spec spec with
              | Error e -> Error ("platform_values: " ^ e)
              | Ok (p, _) -> resolve ((Platform.to_spec p, p) :: acc) rest)
        in
        resolve [] specs
  in
  Result.map
    (fun platform_choices ->
      {
        Explore.f_values =
          Option.value eo.f_values ~default:d.Explore.f_values;
        n_max_values = Option.value eo.n_max_values ~default:[ base.Flow.n_max ];
        max_cells_values =
          Option.value eo.max_cells_values ~default:d.Explore.max_cells_values;
        vdd_values =
          Option.value eo.vdd_values ~default:[ base.Flow.asic_vdd_v ];
        rset_choices = [ ("default", base.Flow.resource_sets) ];
        config_choices = [ ("default", base.Flow.config) ];
        platform_choices;
      })
    platform_choices

let explore_strategy (eo : explore_options) =
  match eo.strategy with
  | None -> Ok Explore.Strategy.grid
  | Some s -> Explore.Strategy.of_string s

let prepare_program (o : run_options) p =
  let p =
    if Option.value o.optimize ~default:false then Lp_ir.Optim.optimize_program p
    else p
  in
  match o.unroll with
  | Some factor when factor > 1 -> Lp_ir.Optim.unroll ~factor p
  | Some _ | None -> p

(* --- decoding ----------------------------------------------------- *)

let request_id json = Option.value (J.member "id" json) ~default:J.Null

let scheduler_of_json v =
  match v with
  | J.String "list" -> Ok Candidate.List_sched
  | J.Assoc _ -> (
      match J.float_field v "fds" with
      | Some stretch when stretch > 0.0 -> Ok (Candidate.Fds stretch)
      | Some _ -> Error "scheduler.fds must be positive"
      | None -> Error "scheduler object must carry a numeric \"fds\"")
  | _ -> Error "scheduler must be \"list\" or {\"fds\": <stretch>}"

let options_of_json v =
  match v with
  | None | Some J.Null -> Ok no_options
  | Some (J.Assoc _ as o) -> (
      let scheduler =
        match J.member "scheduler" o with
        | None -> Ok None
        | Some s -> Result.map Option.some (scheduler_of_json s)
      in
      match scheduler with
      | Error e -> Error e
      | Ok scheduler ->
          Ok
            {
              f = J.float_field o "f";
              n_max = J.int_field o "n_max";
              jobs = J.int_field o "jobs";
              asic_vdd_v = J.float_field o "asic_vdd_v";
              scheduler;
              max_cells = J.int_field o "max_cells";
              peephole = J.bool_field o "peephole";
              platform = J.string_field o "platform";
              icache_bytes = J.int_field o "icache_bytes";
              dcache_bytes = J.int_field o "dcache_bytes";
              optimize = J.bool_field o "optimize";
              unroll = J.int_field o "unroll";
              pool_threshold = J.int_field o "pool_threshold";
            })
  | Some _ -> Error "options must be an object"

let axis_of_json ?(kind = "numeric") to_opt what v =
  let err =
    Error (Printf.sprintf "%s must be a non-empty %s array" what kind)
  in
  match J.to_list_opt v with
  | None | Some [] -> err
  | Some items ->
      let rec go acc = function
        | [] -> Ok (Some (List.rev acc))
        | x :: rest -> (
            match to_opt x with Some n -> go (n :: acc) rest | None -> err)
      in
      go [] items

let explore_options_of_json v =
  match v with
  | None | Some J.Null -> Ok no_explore_options
  | Some (J.Assoc _ as o) ->
      let ( let* ) = Result.bind in
      let axis ?kind to_opt name =
        match J.member name o with
        | None -> Ok None
        | Some v -> axis_of_json ?kind to_opt name v
      in
      let* strategy =
        match J.member "strategy" o with
        | None -> Ok None
        | Some s -> (
            match J.to_string_opt s with
            | None -> Error "strategy must be a string"
            | Some s -> (
                (* Validate at the protocol edge so a typo answers
                   [bad_request], not a failed compute. *)
                match Explore.Strategy.of_string s with
                | Ok _ -> Ok (Some s)
                | Error msg -> Error msg))
      in
      let* f_values = axis J.to_float_opt "f_values" in
      let* n_max_values = axis J.to_int_opt "n_max_values" in
      let* max_cells_values = axis J.to_int_opt "max_cells_values" in
      let* vdd_values = axis J.to_float_opt "vdd_values" in
      let* platform_values =
        axis ~kind:"string" J.to_string_opt "platform_values"
      in
      Ok
        {
          strategy;
          seed = J.int_field o "seed";
          f_values;
          n_max_values;
          max_cells_values;
          vdd_values;
          platform_values;
        }
  | Some _ -> Error "explore must be an object"

let parse_request json =
  match json with
  | J.Assoc _ -> (
      match J.string_field json "cmd" with
      | None -> Error ("bad_request", "missing string field \"cmd\"")
      | Some cmd -> (
          let with_app k =
            match J.string_field json "app" with
            | None ->
                Error
                  ( "bad_request",
                    Printf.sprintf "\"%s\" needs a string field \"app\"" cmd )
            | Some app -> (
                match options_of_json (J.member "options" json) with
                | Error msg -> Error ("bad_request", msg)
                | Ok options -> Ok (k app options))
          in
          match cmd with
          | "run" ->
              let stream =
                Option.value (J.bool_field json "stream") ~default:false
              in
              with_app (fun app options -> Run { app; options; stream })
          | "simulate" -> with_app (fun app options -> Simulate { app; options })
          | "explore" -> (
              match explore_options_of_json (J.member "explore" json) with
              | Error msg -> Error ("bad_request", msg)
              | Ok explore ->
                  with_app (fun app options -> Explore { app; options; explore })
              )
          | "list" -> Ok List_apps
          | "stats" -> Ok Stats
          | "metrics" -> Ok Metrics
          | "shutdown" -> Ok Shutdown
          | other ->
              Error ("unknown_cmd", Printf.sprintf "unknown cmd %S" other)))
  | _ -> Error ("bad_request", "request must be a JSON object")

(* --- encoding ----------------------------------------------------- *)

let options_to_json (o : run_options) =
  let field name conv v = Option.map (fun x -> (name, conv x)) v in
  let fields =
    List.filter_map Fun.id
      [
        field "f" (fun x -> J.Float x) o.f;
        field "n_max" (fun x -> J.Int x) o.n_max;
        field "jobs" (fun x -> J.Int x) o.jobs;
        field "asic_vdd_v" (fun x -> J.Float x) o.asic_vdd_v;
        field "scheduler"
          (function
            | Candidate.List_sched -> J.String "list"
            | Candidate.Fds stretch -> J.Assoc [ ("fds", J.Float stretch) ])
          o.scheduler;
        field "max_cells" (fun x -> J.Int x) o.max_cells;
        field "peephole" (fun x -> J.Bool x) o.peephole;
        field "platform" (fun s -> J.String s) o.platform;
        field "icache_bytes" (fun x -> J.Int x) o.icache_bytes;
        field "dcache_bytes" (fun x -> J.Int x) o.dcache_bytes;
        field "optimize" (fun x -> J.Bool x) o.optimize;
        field "unroll" (fun x -> J.Int x) o.unroll;
        field "pool_threshold" (fun x -> J.Int x) o.pool_threshold;
      ]
  in
  J.Assoc fields

let explore_options_to_json (eo : explore_options) =
  let field name conv v = Option.map (fun x -> (name, conv x)) v in
  let floats xs = J.List (List.map (fun x -> J.Float x) xs) in
  let ints xs = J.List (List.map (fun x -> J.Int x) xs) in
  let fields =
    List.filter_map Fun.id
      [
        field "strategy" (fun s -> J.String s) eo.strategy;
        field "seed" (fun x -> J.Int x) eo.seed;
        field "f_values" floats eo.f_values;
        field "n_max_values" ints eo.n_max_values;
        field "max_cells_values" ints eo.max_cells_values;
        field "vdd_values" floats eo.vdd_values;
        field "platform_values"
          (fun xs -> J.List (List.map (fun s -> J.String s) xs))
          eo.platform_values;
      ]
  in
  J.Assoc fields

let request_to_json ?(id = J.Null) req =
  let id_field = match id with J.Null -> [] | v -> [ ("id", v) ] in
  let body =
    match req with
    | Run { app; options; stream } ->
        [ ("app", J.String app); ("options", options_to_json options) ]
        @ if stream then [ ("stream", J.Bool true) ] else []
    | Simulate { app; options } ->
        [ ("app", J.String app); ("options", options_to_json options) ]
    | Explore { app; options; explore } ->
        [
          ("app", J.String app);
          ("options", options_to_json options);
          ("explore", explore_options_to_json explore);
        ]
    | List_apps | Stats | Metrics | Shutdown -> []
  in
  J.Assoc (id_field @ [ ("cmd", J.String (cmd_name req)) ] @ body)

let ok_response ~id ~cmd payload =
  J.Assoc
    [ ("id", id); ("ok", J.Bool true); ("cmd", J.String cmd); ("result", payload) ]

let error_response_data ~id ~code ~message ~data =
  J.Assoc
    [
      ("id", id);
      ("ok", J.Bool false);
      ( "error",
        J.Assoc
          ([ ("code", J.String code); ("message", J.String message) ] @ data)
      );
    ]

(* --- streamed events ----------------------------------------------- *)

let stage_event ~id ~seq ~stage ~dt_s =
  J.Assoc
    [
      ("id", id);
      ("event", J.String "stage");
      ("stage", J.String stage);
      ("seq", J.Int seq);
      ("s", J.Float dt_s);
    ]

(* An event line carries "event" and no "ok"; a response always
   carries "ok". Clients use this to interleave the two on one
   connection. *)
let is_event json =
  J.member "event" json <> None && J.bool_field json "ok" = None

type response = {
  resp_id : Lp_json.t;
  payload : (Lp_json.t, string * string) result;
  resp_error : Lp_json.t option;
}

let parse_response json =
  let resp_id = request_id json in
  match J.bool_field json "ok" with
  | Some true -> (
      match J.member "result" json with
      | Some payload -> Ok { resp_id; payload = Ok payload; resp_error = None }
      | None -> Error "ok response without \"result\"")
  | Some false -> (
      match J.member "error" json with
      | Some err ->
          let code = Option.value (J.string_field err "code") ~default:"?" in
          let message =
            Option.value (J.string_field err "message") ~default:""
          in
          Ok { resp_id; payload = Error (code, message); resp_error = Some err }
      | None -> Error "error response without \"error\"")
  | None -> Error "response must carry a boolean \"ok\""
