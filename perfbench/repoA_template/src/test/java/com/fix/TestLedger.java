package com.fix;

import org.junit.Test;
import static org.junit.Assert.assertEquals;

public class TestLedger {

    @Test
    public void testPostOk() {
        Ledger ledger = new Ledger();
        ledger.post(5);
        assertEquals(1, ledger.size());
    }
}
