(* Registry associating the closure-based device with its backing store, so
   snapshot can retrieve it without widening the Device.t type. *)
let backing : (string, Bytes.t) Hashtbl.t = Hashtbl.create 8
let counter = ref 0

let of_data ~register ~name data =
  if register then Hashtbl.replace backing name data;
  Device.make ~name ~size:(Bytes.length data)
    ~read:(fun ~off ~buf ~pos ~len -> Bytes.blit data off buf pos len)
    ~write:(fun ~off ~buf ~pos ~len -> Bytes.blit buf pos data off len)
    ~close:(fun () -> if register then Hashtbl.remove backing name)
    ()

let create ?name ~size () =
  incr counter;
  let name =
    match name with
    | Some n -> Printf.sprintf "%s#%d" n !counter
    | None -> Printf.sprintf "mem#%d" !counter
  in
  of_data ~register:true ~name (Bytes.make size '\000')

let of_bytes ?(name = "mem-image") bytes =
  (* Unregistered (no snapshot support): replayed crash images are created
     by the thousand and must not accumulate in the registry. *)
  of_data ~register:false ~name (Bytes.copy bytes)

let snapshot (d : Device.t) =
  match Hashtbl.find_opt backing d.Device.name with
  | Some data -> Bytes.copy data
  | None -> invalid_arg "Mem_device.snapshot: not a memory device"

let live () = Hashtbl.length backing
