package com.gate;

import org.junit.Test;
import static org.junit.Assert.assertEquals;

public class GateTest {

    @Test
    public void testOpenNarrow() {
        new Gate().open(3);
    }

    @Test
    public void testDefaultBox() {
        assertEquals(4, new Box().size());
    }
}
