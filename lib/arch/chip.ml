module Bitset = Mf_util.Bitset
module Grid = Mf_grid.Grid
module Graph = Mf_graph.Graph
module Traverse = Mf_graph.Traverse

type device_kind = Mixer | Detector | Heater | Filter

type device = { device_id : int; kind : device_kind; node : int; name : string }

type port = { port_id : int; node : int; port_name : string }

type valve = { valve_id : int; edge : int; control : int; is_dft : bool }

type t = {
  chip_name : string;
  grid : Grid.t;
  devices : device array;
  ports : port array;
  channels : Bitset.t;
  valves : valve array;
  valve_of_edge : int array; (* edge -> valve id or -1 *)
  n_original_valves : int;
  n_controls : int;
  dft_edges : int list;
  device_of_node : int array; (* node -> device id or -1 *)
  port_of_node : int array;
}

let grid t = t.grid
let devices t = t.devices
let ports t = t.ports
let valves t = t.valves
let n_valves t = Array.length t.valves
let n_original_valves t = t.n_original_valves
let n_controls t = t.n_controls
let name t = t.chip_name
let channel_edges t = Bitset.copy t.channels
let is_channel t e = Bitset.mem t.channels e

let valve_on t e = if t.valve_of_edge.(e) < 0 then None else Some t.valves.(t.valve_of_edge.(e))

let valves_of_control t line =
  Array.fold_right (fun v acc -> if v.control = line then v :: acc else acc) t.valves []

let device_at t node = if t.device_of_node.(node) < 0 then None else Some t.devices.(t.device_of_node.(node))
let port_at t node = if t.port_of_node.(node) < 0 then None else Some t.ports.(t.port_of_node.(node))

let dft_edges t = t.dft_edges

(* ------------------------------------------------------------------ *)
(* Builder *)

type builder = {
  b_name : string;
  b_grid : Grid.t;
  mutable b_devices : device list; (* reversed *)
  mutable b_ports : port list;
  b_channels : Bitset.t;
  mutable b_valve_edges : int list; (* reversed *)
}

let builder ~name ~width ~height =
  let g = Grid.create ~width ~height in
  {
    b_name = name;
    b_grid = g;
    b_devices = [];
    b_ports = [];
    b_channels = Bitset.create (Grid.n_edges g);
    b_valve_edges = [];
  }

let node_of b (x, y) = Grid.node b.b_grid ~x ~y

let add_device b ~kind ~x ~y ~name =
  let node = node_of b (x, y) in
  let device_id = List.length b.b_devices in
  b.b_devices <- { device_id; kind; node; name } :: b.b_devices

let add_port b ~x ~y ~name =
  let node = node_of b (x, y) in
  let port_id = List.length b.b_ports in
  b.b_ports <- { port_id; node; port_name = name } :: b.b_ports

let add_channel b path =
  let rec lay = function
    | [] | [ _ ] -> ()
    | a :: (c :: _ as rest) ->
      (match Grid.edge_between b.b_grid (node_of b a) (node_of b c) with
       | None ->
         invalid_arg
           (Printf.sprintf "Chip.add_channel: (%d,%d) and (%d,%d) not adjacent" (fst a) (snd a)
              (fst c) (snd c))
       | Some e -> Bitset.add b.b_channels e);
      lay rest
  in
  lay path

let add_valve b a c =
  match Grid.edge_between b.b_grid (node_of b a) (node_of b c) with
  | None -> invalid_arg "Chip.add_valve: coordinates not adjacent"
  | Some e ->
    if not (Bitset.mem b.b_channels e) then
      invalid_arg "Chip.add_valve: no channel on that edge";
    if List.mem e b.b_valve_edges then invalid_arg "Chip.add_valve: duplicate valve";
    b.b_valve_edges <- e :: b.b_valve_edges

let freeze ~chip_name ~grid ~devices ~ports ~channels ~valve_specs ~n_original_valves ~dft_edges =
  let n_edges = Grid.n_edges grid in
  let n_nodes = Grid.n_nodes grid in
  let valves =
    Array.of_list
      (List.mapi
         (fun valve_id (edge, control, is_dft) -> { valve_id; edge; control; is_dft })
         valve_specs)
  in
  let valve_of_edge = Array.make n_edges (-1) in
  Array.iter (fun v -> valve_of_edge.(v.edge) <- v.valve_id) valves;
  let device_of_node = Array.make n_nodes (-1) in
  Array.iter (fun (d : device) -> device_of_node.(d.node) <- d.device_id) devices;
  let port_of_node = Array.make n_nodes (-1) in
  Array.iter (fun (p : port) -> port_of_node.(p.node) <- p.port_id) ports;
  let n_controls =
    Array.fold_left (fun acc v -> max acc (v.control + 1)) 0 valves
  in
  {
    chip_name;
    grid;
    devices;
    ports;
    channels;
    valves;
    valve_of_edge;
    n_original_valves;
    n_controls;
    dft_edges;
    device_of_node;
    port_of_node;
  }

let validate chip =
  let g = Grid.graph chip.grid in
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  (* distinct placement *)
  let node_users = Hashtbl.create 16 in
  Array.iter (fun (d : device) ->
      (match Hashtbl.find_opt node_users d.node with
       | Some other -> err "device %s overlaps %s" d.name other
       | None -> ());
      Hashtbl.replace node_users d.node d.name)
    chip.devices;
  Array.iter (fun (p : port) ->
      (match Hashtbl.find_opt node_users p.node with
       | Some other -> err "port %s overlaps %s" p.port_name other
       | None -> ());
      Hashtbl.replace node_users p.node p.port_name)
    chip.ports;
  if Array.length chip.ports < 2 then err "a chip needs at least two ports";
  (* connectivity of the channel network over all devices and ports *)
  let allowed e = Bitset.mem chip.channels e in
  (match chip.ports with
   | [||] -> ()
   | ports ->
     let reach = Traverse.reachable g ~allowed ~src:ports.(0).node in
     Array.iter
       (fun (p : port) ->
         if not (Bitset.mem reach p.node) then err "port %s unreachable through channels" p.port_name)
       ports;
     Array.iter
       (fun (d : device) ->
         if not (Bitset.mem reach d.node) then err "device %s unreachable through channels" d.name)
       chip.devices);
  (* closing all valves must separate every pair of ports, otherwise
     stuck-at-1 defects cannot be tested *)
  let open_when_all_closed e = Bitset.mem chip.channels e && chip.valve_of_edge.(e) < 0 in
  let n_ports = Array.length chip.ports in
  for i = 0 to n_ports - 1 do
    for j = i + 1 to n_ports - 1 do
      if
        Traverse.connected g ~allowed:open_when_all_closed chip.ports.(i).node
          chip.ports.(j).node
      then
        err "ports %s and %s stay connected with all valves closed" chip.ports.(i).port_name
          chip.ports.(j).port_name
    done
  done;
  match !errors with [] -> Ok chip | es -> Error (String.concat "; " (List.rev es))

let finish b =
  let devices = Array.of_list (List.rev b.b_devices) in
  let ports = Array.of_list (List.rev b.b_ports) in
  let valve_specs =
    List.mapi (fun i edge -> (edge, i, false)) (List.rev b.b_valve_edges)
  in
  let chip =
    freeze ~chip_name:b.b_name ~grid:b.b_grid ~devices ~ports ~channels:(Bitset.copy b.b_channels)
      ~valve_specs ~n_original_valves:(List.length valve_specs) ~dft_edges:[]
  in
  validate chip

let finish_exn b =
  match finish b with Ok chip -> chip | Error msg -> invalid_arg ("Chip.finish: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Augmentation *)

let strip_augmentation chip =
  (* keep only original channels and valves *)
  let channels = Bitset.copy chip.channels in
  List.iter (fun e -> Bitset.remove channels e) chip.dft_edges;
  let valve_specs =
    Array.to_list chip.valves
    |> List.filter (fun v -> not v.is_dft)
    |> List.map (fun v -> (v.edge, v.valve_id, false))
  in
  freeze ~chip_name:chip.chip_name ~grid:chip.grid ~devices:chip.devices ~ports:chip.ports
    ~channels ~valve_specs ~n_original_valves:chip.n_original_valves ~dft_edges:[]

let augment chip ~edges =
  let base = if chip.dft_edges = [] then chip else strip_augmentation chip in
  let channels = Bitset.copy base.channels in
  List.iter
    (fun e ->
      if Bitset.mem channels e then
        invalid_arg (Format.asprintf "Chip.augment: edge %a already a channel" (Grid.pp_edge base.grid) e);
      Bitset.add channels e)
    edges;
  let n_orig = base.n_original_valves in
  let original_specs = Array.to_list base.valves |> List.map (fun v -> (v.edge, v.control, false)) in
  let dft_specs = List.mapi (fun i e -> (e, n_orig + i, true)) edges in
  freeze ~chip_name:base.chip_name ~grid:base.grid ~devices:base.devices ~ports:base.ports
    ~channels ~valve_specs:(original_specs @ dft_specs) ~n_original_valves:n_orig ~dft_edges:edges

let with_sharing chip assignments =
  let n = Array.length chip.valves in
  let control = Array.map (fun v -> v.control) chip.valves in
  List.iter
    (fun (dft_id, orig_id) ->
      if dft_id < 0 || dft_id >= n || not chip.valves.(dft_id).is_dft then
        invalid_arg "Chip.with_sharing: first id must be a DFT valve";
      if orig_id < 0 || orig_id >= chip.n_original_valves then
        invalid_arg "Chip.with_sharing: second id must be an original valve";
      control.(dft_id) <- chip.valves.(orig_id).control)
    assignments;
  (* densify control line numbering *)
  let remap = Hashtbl.create 16 in
  let next = ref 0 in
  let dense line =
    match Hashtbl.find_opt remap line with
    | Some d -> d
    | None ->
      let d = !next in
      incr next;
      Hashtbl.add remap line d;
      d
  in
  let valves =
    Array.map
      (fun v ->
        let control = dense control.(v.valve_id) in
        if control = v.control then v else { v with control })
      chip.valves
  in
  (* only control lines change: every other field, lookup tables included,
     is shared with [chip] (none is mutated after [freeze]) *)
  { chip with valves; n_controls = !next }

(* ------------------------------------------------------------------ *)
(* Printing *)

let kind_letter = function Mixer -> 'M' | Detector -> 'D' | Heater -> 'H' | Filter -> 'F'

let pp ppf t =
  Fmt.pf ppf "@[<v>chip %s (%dx%d grid)@,%d devices, %d ports, %d channels, %d valves (%d DFT), %d control lines@]"
    t.chip_name (Grid.width t.grid) (Grid.height t.grid) (Array.length t.devices)
    (Array.length t.ports) (Bitset.cardinal t.channels) (Array.length t.valves)
    (Array.length t.valves - t.n_original_valves)
    t.n_controls

let render t =
  let w = Grid.width t.grid and h = Grid.height t.grid in
  let g = Grid.graph t.grid in
  let buf = Buffer.create 256 in
  let cell x y =
    let n = Grid.node t.grid ~x ~y in
    match (device_at t n, port_at t n) with
    | Some d, _ -> kind_letter d.kind
    | None, Some _ -> 'P'
    | None, None -> '+'
  in
  let edge_char a b vertical =
    match Grid.edge_between t.grid a b with
    | None -> ' '
    | Some e ->
      if not (Bitset.mem t.channels e) then ' '
      else begin
        match valve_on t e with
        | Some v -> if v.is_dft then 'o' else 'x'
        | None -> if vertical then '|' else '-'
      end
  in
  ignore g;
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      Buffer.add_char buf (cell x y);
      if x + 1 < w then begin
        let c = edge_char (Grid.node t.grid ~x ~y) (Grid.node t.grid ~x:(x + 1) ~y) false in
        Buffer.add_char buf c;
        Buffer.add_char buf (if c = ' ' then ' ' else c);
        Buffer.add_char buf c
      end
    done;
    Buffer.add_char buf '\n';
    if y + 1 < h then begin
      for x = 0 to w - 1 do
        Buffer.add_char buf (edge_char (Grid.node t.grid ~x ~y) (Grid.node t.grid ~x ~y:(y + 1)) true);
        if x + 1 < w then Buffer.add_string buf "   "
      done;
      Buffer.add_char buf '\n'
    end
  done;
  Buffer.contents buf
