// WordPress: analyze a synthetic plugin with the wpsqli weapon (Section
// IV-C.3), which knows $wpdb's sinks, WordPress sanitizers (esc_sql,
// $wpdb->prepare) and dynamic symptoms (sanitize_text_field, absint), then
// apply the san_wpsqli fix.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/vuln"
	"repro/internal/weapon"
)

const plugin = `<?php
/*
Plugin Name: Demo Shop
*/

// BUG: raw POST data concatenated into a $wpdb query.
function demo_find_product() {
    global $wpdb;
    $sku = $_POST['sku'];
    return $wpdb->get_row("SELECT * FROM wp_demo_products WHERE sku = '" . $sku . "'");
}

// OK: placeholder queries via $wpdb->prepare are safe.
function demo_find_order($wpdb) {
    $id = $_GET['order'];
    $sql = $wpdb->prepare("SELECT * FROM wp_demo_orders WHERE id = %d", $id);
    return $wpdb->get_row($sql);
}

// OK: esc_sql is WordPress's escaping helper.
function demo_search($wpdb) {
    $term = esc_sql($_GET['s']);
    return $wpdb->get_results("SELECT * FROM wp_demo_products WHERE name LIKE '%" . $term . "%'");
}

// Guarded by absint: flagged by the detector, dismissed by the predictor
// thanks to the weapon's dynamic symptom (absint ~ intval).
function demo_count($wpdb) {
    $cat = $_GET['cat'];
    if (absint($cat) == 0) { exit; }
    return $wpdb->get_var("SELECT COUNT(*) FROM wp_demo_products WHERE cat=" . $cat);
}`

func main() {
	builtin, err := weapon.Builtin()
	if err != nil {
		log.Fatal(err)
	}
	var wp *weapon.Weapon
	for _, w := range builtin {
		if w.Class.ID == vuln.WPSQLI {
			wp = w
		}
	}

	engine, err := core.New(core.Options{
		Mode:    core.ModeWAPe,
		Weapons: []*weapon.Weapon{wp},
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Train(); err != nil {
		log.Fatal(err)
	}

	project := core.LoadMap("demo-shop", map[string]string{"demo-shop.php": plugin})
	rep, err := engine.Analyze(project)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("wpsqli weapon results:")
	for _, gf := range report.Group(rep) {
		f := gf.Findings[0]
		verdict := "REAL VULNERABILITY"
		if gf.PredictedFP {
			verdict = "predicted false positive"
		}
		fmt.Printf("  line %-3d sink %-12s in %-18s -> %s\n",
			gf.Line, f.Candidate.SinkName, f.Candidate.EnclosingFunc, verdict)
	}

	fixed, applied, err := engine.FixProject(rep)
	if err != nil {
		log.Fatal(err)
	}
	for path, corrs := range applied {
		fmt.Printf("\napplied %d correction(s) to %s:\n", len(corrs), path)
		for _, c := range corrs {
			fmt.Printf("  line %d: %s\n", c.Line, c.After)
		}
	}
	_ = fixed
}
