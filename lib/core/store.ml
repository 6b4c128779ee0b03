type 'a t = { root : string; dir : string; magic : string; suffix : string }

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

let create ~name ~version ?scope ~suffix root =
  let dir = Filename.concat root (Printf.sprintf "v%d" version) in
  let dir =
    match scope with
    | None -> dir
    | Some s -> Filename.concat dir (Digest.to_hex s)
  in
  mkdir_p dir;
  let magic =
    Printf.sprintf "lowpart-%s/%d ocaml-%s\n" name version Sys.ocaml_version
  in
  { root; dir; magic; suffix }

let root t = t.root
let entry_path t key = Filename.concat t.dir (Digest.to_hex key ^ t.suffix)

(* The checksum is verified before Marshal sees a byte: unmarshalling
   damaged data can build an ill-typed value or crash the process, so a
   payload that is not exactly what a writer produced must never reach
   it. *)
let decode t key entry =
  let m = String.length t.magic in
  let payload = m + 16 in
  if
    String.length entry < payload
    || not (String.starts_with ~prefix:t.magic entry)
  then None
  else if
    not
      (Digest.equal (String.sub entry m 16)
         (Digest.substring entry payload (String.length entry - payload)))
  then None
  else
    let stored_key, v = Marshal.from_string entry payload in
    if String.equal stored_key key then Some v else None

let find t key =
  let path = entry_path t key in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | entry -> (
      match decode t key entry with
      | Some _ as v -> v
      | None | (exception _) ->
          (try Sys.remove path with Sys_error _ -> ());
          None)

let add t key v =
  try
    mkdir_p t.dir;
    let payload = Marshal.to_string (key, v) [] in
    let tmp = Filename.temp_file ~temp_dir:t.dir (t.suffix ^ "-") ".tmp" in
    Out_channel.with_open_bin tmp (fun oc ->
        output_string oc t.magic;
        output_string oc (Digest.string payload);
        output_string oc payload);
    Sys.rename tmp (entry_path t key)
  with Sys_error _ -> ()

let entries t =
  match Sys.readdir t.dir with
  | files ->
      Array.fold_left
        (fun acc f -> if Filename.check_suffix f t.suffix then acc + 1 else acc)
        0 files
  | exception Sys_error _ -> 0
